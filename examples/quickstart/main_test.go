package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestOutputIsREADMEs: README's Quickstart block is what the program
// prints, line for line, and the kernel it prints is smaller compressed
// than dense.
func TestOutputIsREADMEs(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(readme), "go run ./examples/quickstart\n```\n\n```text\n")
	want, _, closed := strings.Cut(after, "```")
	if !ok || !closed {
		t.Fatal("README.md has no text block after the `go run ./examples/quickstart` command")
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("quickstart prints\n%s\nREADME.md quotes\n%s", got, want)
	}
	var nf int
	var denseKB, tlrKB float64
	if _, err := fmt.Sscanf(out.String(), "kernel: %d frequency matrices, %f kB dense, %f kB TLR-compressed",
		&nf, &denseKB, &tlrKB); err != nil {
		t.Fatalf("first line: %v", err)
	}
	if !(tlrKB < denseKB) {
		t.Errorf("TLR kernel %.1f kB is not smaller than the dense %.1f kB", tlrKB, denseKB)
	}
}
