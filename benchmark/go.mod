module github.com/dcindex/dctree/benchmark

go 1.22

require github.com/dcindex/dctree v0.0.0

replace github.com/dcindex/dctree => ../
