package graph

import (
	"reflect"
	"unsafe"
)

// mmap*.go is the sanctioned site of the aliasing row: unsafe and the
// reflect headers are not forbid findings here (unsafeguard then asks each
// use for an invariant comment; that rule has its own fixture).
func headerOf(s []int32) *reflect.SliceHeader {
	return (*reflect.SliceHeader)(unsafe.Pointer(&s))
}
