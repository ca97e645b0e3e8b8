module staircase/benchmark

go 1.23

require staircase v0.0.0

replace staircase => ../
