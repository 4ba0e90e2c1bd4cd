module codb/bench

go 1.24

require codb v0.0.0

replace codb => ../
