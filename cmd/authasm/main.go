// Command authasm assembles authpoint assembly and prints the binary image:
// encoded text words with disassembly, the data section, and the symbol
// table. To execute a program, use authsim -file.
//
// Usage:
//
//	authasm prog.s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"authpoint/internal/asm"
	"authpoint/internal/isa"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: authasm file.s")
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("text @ %#x (%d instructions), data @ %#x (%d bytes), entry %#x\n\n",
		p.TextBase, len(p.Text), p.DataBase, len(p.Data), p.Entry)
	for i, w := range p.Text {
		addr := p.TextBase + uint64(i*isa.InstBytes)
		if lbl := labelAt(p, addr); lbl != "" {
			fmt.Printf("%s:\n", lbl)
		}
		fmt.Printf("  %#08x: %08x  %v\n", addr, w, isa.Decode(w))
	}
	if len(p.Data) > 0 {
		fmt.Printf("\ndata (first %d bytes):\n", min(64, len(p.Data)))
		for i := 0; i < min(64, len(p.Data)); i += 16 {
			end := min(i+16, len(p.Data))
			fmt.Printf("  %#08x: % x\n", p.DataBase+uint64(i), p.Data[i:end])
		}
	}
	fmt.Println("\nsymbols:")
	type symb struct {
		name string
		addr uint64
	}
	var syms []symb
	for n, a := range p.Symbols {
		syms = append(syms, symb{n, a})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
	for _, s := range syms {
		fmt.Printf("  %#08x %s\n", s.addr, s.name)
	}
}

func labelAt(p *asm.Program, addr uint64) string {
	for n, a := range p.Symbols {
		if a == addr {
			return n
		}
	}
	return ""
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "authasm: "+format+"\n", args...)
	os.Exit(1)
}
