module axml/benchmarks

go 1.24

require axml v0.0.0

replace axml => ../
