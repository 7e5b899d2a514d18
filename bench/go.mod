module eyewnder/bench

go 1.24

require eyewnder v0.0.0

replace eyewnder => ../
