module graphreorder/bench

go 1.24

require graphreorder v0.0.0

replace graphreorder => ../
