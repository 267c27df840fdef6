package report

import (
	"reflect"
	"testing"
	"unsafe"
)

// The SMTP analyzer's flow key is padding-free, so Tap's lookup hashes it in
// one call, where netstack.FlowKey's padding costs one call per field.
func TestMapKeysArePaddingFree(t *testing.T) {
	typ := reflect.TypeOf(smtpKey{})
	var fields uintptr
	for i := 0; i < typ.NumField(); i++ {
		fields += typ.Field(i).Type.Size()
	}
	if size := unsafe.Sizeof(smtpKey{}); size != fields || size != 16 {
		t.Errorf("smtpKey is %d bytes for %d bytes of fields, want 16 for 16", size, fields)
	}
}
