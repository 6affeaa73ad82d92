package graph

import (
	"reflect"
	"unsafe" // want `import of unsafe outside the mmap layer`
)

// hot.go is outside the allowlist: neither unsafe nor reflect headers may
// appear here, documented or not.
func alias(b []byte) uintptr {
	return uintptr(unsafe.Pointer(&b[0])) // want `unsafe.Pointer outside the mmap layer`
}

func headerData(s []int32) uintptr {
	h := (*reflect.SliceHeader)(unsafe.Pointer(&s)) // want `reflect.SliceHeader outside the mmap layer` // want `unsafe.Pointer outside the mmap layer`
	return h.Data
}
