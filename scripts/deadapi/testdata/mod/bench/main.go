// Command bench stands for the frozen benchmark harness: its writes count
// as uses.
package main

import "fixture/lib"

func main() {
	b := &lib.Box{}
	b.Frozen = 1
}
