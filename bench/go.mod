module github.com/dataspace/automed/bench

go 1.24

require github.com/dataspace/automed v0.0.0

replace github.com/dataspace/automed => ../
