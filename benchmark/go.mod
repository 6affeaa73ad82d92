module graphpart/benchmark

go 1.22

require graphpart v0.0.0

replace graphpart => ../
