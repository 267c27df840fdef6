package host

import (
	"reflect"
	"testing"
	"unsafe"
)

// A connection's key is padding-free and 8 bytes, so handleTCP's lookup
// hashes it in one call on the map's 64-bit fast path.
func TestMapKeysArePaddingFree(t *testing.T) {
	typ := reflect.TypeOf(connKey{})
	var fields uintptr
	for i := 0; i < typ.NumField(); i++ {
		fields += typ.Field(i).Type.Size()
	}
	if size := unsafe.Sizeof(connKey{}); size != fields || size != 8 {
		t.Errorf("connKey is %d bytes for %d bytes of fields, want 8 for 8", size, fields)
	}
}
