// Command hexload bulk-loads an N-Triples file into a Hexastore and
// reports the index statistics the paper's space argument (§4.1) is
// phrased in, optionally writing a binary snapshot for fast reloads.
//
// Usage:
//
//	hexload data.nt
//	hexload -turtle data.ttl
//	hexload -snapshot data.hex data.nt
//	hexload -restore data.hex
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hexastore"
)

func main() {
	var (
		snapshot = flag.String("snapshot", "", "write a binary snapshot to this path after loading")
		restore  = flag.String("restore", "", "load from a snapshot instead of an N-Triples file")
		turtle   = flag.Bool("turtle", false, "parse the input file as Turtle instead of N-Triples")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0),
			"goroutines for the load pipeline (parse, dictionary encoding, index build); "+
				"1 = sequential. Ids and the built store, -snapshot output included, "+
				"are the same for every worker count")
	)
	flag.Parse()

	var st *hexastore.Store
	start := time.Now()
	switch {
	case *restore != "":
		f, err := os.Open(*restore)
		if err != nil {
			fatal(err)
		}
		st, err = hexastore.Restore(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("restored %s in %v\n", *restore, time.Since(start).Round(time.Millisecond))
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if *turtle {
			st, err = hexastore.LoadTurtleParallel(f, *workers)
		} else {
			st, err = hexastore.LoadNTriplesParallel(f, *workers)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s in %v (workers=%d)\n",
			flag.Arg(0), time.Since(start).Round(time.Millisecond), *workers)
	default:
		fmt.Fprintln(os.Stderr, "usage: hexload [-turtle] [-workers n] [-snapshot out.hex] data.nt | hexload -restore in.hex")
		os.Exit(2)
	}

	stats := st.Stats()
	fmt.Printf("triples:             %d\n", stats.Triples)
	fmt.Printf("distinct terms:      %d\n", st.Dictionary().Len())
	fmt.Printf("index headers:       %d\n", stats.Headers)
	fmt.Printf("vector entries:      %d\n", stats.VectorEntries)
	fmt.Printf("terminal-list ids:   %d\n", stats.ListEntries)
	fmt.Printf("total entries:       %d\n", stats.TotalEntries())
	fmt.Printf("expansion factor:    %.3f (worst case 5.0 over a triples table)\n", stats.ExpansionFactor())
	fmt.Printf("index bytes (est.):  %d\n", stats.SizeBytes())

	if *snapshot != "" {
		f, err := os.Create(*snapshot)
		if err != nil {
			fatal(err)
		}
		start = time.Now()
		if err := st.Snapshot(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		info, _ := os.Stat(*snapshot)
		fmt.Printf("snapshot:            %s (%d bytes, %v)\n",
			*snapshot, info.Size(), time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hexload: %v\n", err)
	os.Exit(1)
}
