// Package fixture is the module's facade: its declarations are never
// reported, used or not.
package fixture

// Facade is used by nothing.
func Facade() {}
