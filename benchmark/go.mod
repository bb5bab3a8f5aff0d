module swift/benchmark

go 1.22

require swift v0.0.0

replace swift => ../
