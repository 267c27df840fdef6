// Command app is the fixture's user of lib.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	var n lib.Namer = lib.Decider{}
	b := &lib.Box{Live: 1}
	fmt.Println(n.Name(), b.Get(), lib.Seen(nil, 1, 2), lib.On())
	lib.Print()
}
