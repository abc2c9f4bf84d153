//go:build unix

package secmem

import (
	"os"
	"syscall"

	"authpoint/internal/mem"
)

// newTablePage returns a zeroed page for the sealed-page table, mapped
// outside the Go heap where the platform's page size matches the model's.
// Table pages live as long as the process, so the garbage collector gains
// nothing by tracking them, and off-heap they do not inflate its heap goal.
// mapped reports whether freezeTablePage may protect the page.
func newTablePage() (b []byte, mapped bool) {
	if os.Getpagesize() == mem.PageSize {
		b, err := syscall.Mmap(-1, 0, mem.PageSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			return b, true
		}
	}
	return make([]byte, mem.PageSize), false
}

// freezeTablePage makes a filled, mapped table page read-only: a write
// through a shared page then faults at once instead of corrupting every
// machine that shares it.
func freezeTablePage(b []byte) {
	if err := syscall.Mprotect(b, syscall.PROT_READ); err != nil {
		panic(err)
	}
}
