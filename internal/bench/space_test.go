package bench

import "testing"

// TestSpace01CompressionRatio is the acceptance gate for the
// block-compressed index layer: bytes per triple must be at least 2x
// smaller than the raw layout at every measured prefix — on disk
// measured, in memory against the raw layout's cost model.
func TestSpace01CompressionRatio(t *testing.T) {
	figs, err := RunSpace(Config{LUBMUniversities: 1, Steps: 2, Repeats: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != "space01" {
		t.Fatalf("unexpected figures: %v", figs)
	}
	found := map[string]bool{}
	for _, s := range figs[0].Series {
		switch s.Name {
		case "Memory ratio":
			found[s.Name] = true
			for _, p := range s.Points {
				if p.Value < 2.0 {
					t.Errorf("memory compression ratio %.2f at %d triples, want >= 2.0", p.Value, p.Triples)
				}
			}
		case "Disk ratio":
			found[s.Name] = true
			for _, p := range s.Points {
				if p.Value < 2.0 {
					t.Errorf("disk compression ratio %.2f at %d triples, want >= 2.0", p.Value, p.Triples)
				}
			}
		}
	}
	for _, name := range []string{"Memory ratio", "Disk ratio"} {
		if !found[name] {
			t.Errorf("space01 is missing the %q series", name)
		}
	}
}
