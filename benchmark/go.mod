module github.com/agardist/agar/benchmark

go 1.24

require github.com/agardist/agar v0.0.0

replace github.com/agardist/agar => ../
