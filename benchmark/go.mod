module rebeca/benchmark

go 1.24

require rebeca v0.0.0

replace rebeca => ../
