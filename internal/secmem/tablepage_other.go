//go:build !unix

package secmem

import "authpoint/internal/mem"

// newTablePage returns a zeroed page for the sealed-page table. Off unix
// the page lives on the Go heap and cannot be protected.
func newTablePage() (b []byte, mapped bool) { return make([]byte, mem.PageSize), false }

func freezeTablePage([]byte) {}
