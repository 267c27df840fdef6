// Package lib holds one declaration of each kind the checker reports as
// dead, one live case for each rule that makes a reference-free
// declaration used, and one declaration only a test uses.
package lib

import (
	"encoding/json"
	"fmt"
)

// Dead: nothing outside a test references these.

func DeadFunc() {}

type Box struct {
	Live   int
	dead   int
	Frozen int // written only by bench/, which counts
}

func (b *Box) DeadMethod() {}

func (b *Box) Get() int { return b.Live }

var DeadVar = 1

const DeadConst = 2

func OnlyTested() int { return 3 }

// Dead: fields that are only written — assigned, incremented, set in a
// keyed literal, appended to, a map whose entries are only set, bumped,
// appended to, deleted and cleared — and a package-level var only assigned.

type Log struct {
	assigned int
	counter  int
	keyed    int
	entries  []int
	byValue  map[int][]int
}

func NewLog() *Log { return &Log{keyed: 1} }

func (l *Log) Record(v int) {
	l.assigned = v
	l.counter++
	l.entries = append(l.entries, v)
	lastRecorded = v
	l.byValue[v] = nil
	l.byValue[v] = append(l.byValue[v], v)
	delete(l.byValue, v-1)
	clear(l.byValue)
}

var lastRecorded int

// Dead: an interface method nobody calls, and both implementations of it.

type Shape interface {
	Area() int
	Kind() string
}

type Square struct{ Side int }

func (s Square) Area() int    { return s.Side * s.Side }
func (s Square) Kind() string { return "square" }

type Rect struct{ W, H int }

func (r Rect) Area() int    { return r.W * r.H }
func (r Rect) Kind() string { return "rect" }

func TotalArea(shapes []Shape) (n int) {
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// Live: a method promoted from an embedded type into a type that
// implements an interface non-test code mentions.

type Namer interface{ Name() string }

type base struct{}

func (base) Name() string { return "base" }

type Decider struct{ base }

// Live: a map field whose entries are written and read.

type Table struct{ rows map[int]int }

func (t *Table) Put(k, v int) { t.rows[k]++; t.rows[k] = v }

func (t *Table) Get(k int) int { return t.rows[k] }

// Live: the fields of a map's key type, though only a keyed literal sets
// them.

type key struct{ vlan, port int }

func Seen(m map[key]bool, vlan, port int) bool { return m[key{vlan: vlan, port: port}] }

// Live: the fields of a struct compared with ==.

type Point struct{ X, Y int }

func Same(a, b Point) bool { return a == b }

// Live: a field with a struct tag, which reflection reads.

type Doc struct {
	ID int `json:"id"`
}

func Encode(id int) ([]byte, error) { return json.Marshal(Doc{ID: id}) }

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

// Live: an Error method the universe's error interface reaches.

type Err struct{}

func (Err) Error() string { return "err" }

func Fail() error { return Err{} }
