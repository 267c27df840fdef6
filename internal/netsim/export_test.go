package netsim

// Misses reports how many takes of a class size found the class empty and
// made a buffer.
func (l *Frames) Misses() int { return l.misses }
