package main

import "fixture/internal/lib"

func main() {
	lib.Used()
	_ = lib.T{}
	_ = lib.UsedVar
	_ = lib.G[int]{}.Get()
}
