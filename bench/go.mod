module milret/bench

go 1.24

require milret v0.0.0

replace milret => ../
