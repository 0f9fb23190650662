package asm_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specasan/internal/asm"
	"specasan/internal/isa"
	"specasan/internal/mem"
)

// fuzzLoadLimit bounds the data a fuzzed program may span before the
// load comparison is skipped: the reference image materialises every
// reservation, and a fuzzed .space can ask for exabytes.
const fuzzLoadLimit = 1 << 20

// FuzzAssemble feeds arbitrary source to the assembler. It must never
// panic; every instruction of a program it accepts must carry a decoded
// record faithful to the accessors (decodeMismatch); and the program must
// load (mem.Image.LoadProgram, which maps nothing for a reservation) to the
// same bytes over every data block's range as a reference image that writes
// each block in order, with zeros for a reservation. The seed corpus is
// every .s file in the repository.
func FuzzAssemble(f *testing.F) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".s") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			f.Add(string(src))
		}
		return nil
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add("    .org 0x2000\n    .word 1, 2\n    .org 0x2004\n    .space 8\n    .byte 3\n")
	f.Add("    .org 0x1ff8\n    .ascii \"abcdefgh\"\n    .org 0x1ffc\n    .space 4100\n")
	f.Add("_start:\n    SVC #0\n    .align 64\n    .space 0\n    .asciz \"x\"\n")
	f.Add("    .byte 1\n    .align 0x4000000000000000\n    .space 0x7fffffffffffffff\n")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		for _, b := range p.Code {
			for i := range b.Insts {
				if msg := decodeMismatch(&b.Insts[i]); msg != "" {
					t.Fatalf("%s at %#x: %s", &b.Insts[i], b.Addr+uint64(i)*isa.InstBytes, msg)
				}
			}
		}
		var span uint64
		for _, d := range p.Data {
			if d.Bytes != nil && d.Zero != 0 {
				t.Fatalf("block at %#x has both bytes and a reservation", d.Addr)
			}
			if span += d.Len(); span > fuzzLoadLimit || d.Len() > fuzzLoadLimit {
				return
			}
		}
		got, want := mem.NewImage(), mem.NewImage()
		got.LoadProgram(p)
		for _, d := range p.Data {
			if d.Zero > 0 {
				want.Write(d.Addr, make([]byte, d.Zero))
			} else {
				want.Write(d.Addr, d.Bytes)
			}
		}
		for _, d := range p.Data {
			if g, w := got.Read(d.Addr, int(d.Len())), want.Read(d.Addr, int(d.Len())); !bytes.Equal(g, w) {
				t.Fatalf("block at %#x (len %d) loads differently from the reference image", d.Addr, d.Len())
			}
		}
	})
}
