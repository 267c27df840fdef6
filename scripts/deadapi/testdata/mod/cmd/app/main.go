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
	lib.NewLog().Record(1)
	tab := &lib.Table{}
	tab.Put(1, 2)
	fmt.Println(tab.Get(1))
	fmt.Println(lib.TotalArea([]lib.Shape{lib.Square{Side: 1}, lib.Rect{W: 1, H: 2}}))
	fmt.Println(lib.Same(lib.Point{}, lib.Point{X: 1}), lib.Fail())
	fmt.Println(lib.Encode(1))
}
