// Package lib holds one declaration of each kind the checker reports as
// dead, one live case for each rule that makes a reference-free
// declaration used, and one declaration only a test uses.
package lib

import "fmt"

// Dead: nothing outside a test references these.

func DeadFunc() {}

type Box struct {
	Live int
	dead int
}

func (b *Box) DeadMethod() {}

func (b *Box) Get() int { return b.Live }

var DeadVar = 1

const DeadConst = 2

func OnlyTested() int { return 3 }

// Live: a method promoted from an embedded type into a type that
// implements an interface non-test code mentions.

type Namer interface{ Name() string }

type base struct{}

func (base) Name() string { return "base" }

type Decider struct{ base }

// Live: the fields of a map key built by an unkeyed literal.

type key struct{ vlan, port int }

func Seen(m map[key]bool, vlan, port int) bool { return m[key{vlan, port}] }

// Live: an iota zero value whose block is used.

type Mode int

const (
	ModeOff Mode = iota
	ModeOn
)

func On() Mode { return ModeOn }

// Live: a String method fmt reaches.

type Verdict int

func (v Verdict) String() string { return "verdict" }

func Print() { fmt.Println(Verdict(1)) }
