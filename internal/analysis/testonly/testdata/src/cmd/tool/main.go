package main

import (
	"a"
	"b"
)

func init() {}

func main() {
	a.Wire()
	_ = b.Calls()
}
