module hexastore/benchmark

go 1.22

require hexastore v0.0.0

replace hexastore => ../
