module calsys/bench

go 1.22

require calsys v0.0.0

replace calsys => ../
