package main

import (
	"bytes"
	"strings"
	"testing"

	"fusecu/internal/op"
)

func opFor(m, k, l int) op.MatMul {
	return op.MatMul{Name: "test", M: m, K: k, L: l}
}

func TestParseChain(t *testing.T) {
	ops, err := parseChain("512x64x512, 512x512x64")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("ops = %d", len(ops))
	}
	if ops[0].M != 512 || ops[0].K != 64 || ops[0].L != 512 {
		t.Fatalf("op0 = %v", ops[0])
	}
	if ops[1].M != 512 || ops[1].K != 512 || ops[1].L != 64 {
		t.Fatalf("op1 = %v", ops[1])
	}
}

func TestParseChainErrors(t *testing.T) {
	for _, bad := range []string{"", "1x2", "1x2x3x4", "ax2x3", "1x2x3,4x5"} {
		if _, err := parseChain(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestRunSingleAndChain(t *testing.T) {
	var out bytes.Buffer
	if err := runSingle(&out, opFor(64, 32, 48), 4096, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := runSingle(&out, opFor(64, 32, 48), 4096, true, 2); err != nil {
		t.Fatal(err)
	}
	if err := runChain(&out, "64x16x64,64x64x16", 4096); err != nil {
		t.Fatal(err)
	}
	if err := runChain(&out, "64x16x64,63x64x16", 4096); err == nil {
		t.Fatal("mismatched chain accepted")
	}
}

// TestRunBadInput drives the full CLI with invalid input and requires the
// shared contract: usage/diagnostics on stderr, a non-zero exit code, and
// no partial report on stdout.
func TestRunBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"positional args", []string{"12x3x4"}, 2},
		{"non-numeric dim", []string{"-m", "abc"}, 2},
		{"invalid operator", []string{"-m", "0"}, 1},
		{"buffer too small", []string{"-m", "8", "-k", "8", "-l", "8", "-buffer", "1"}, 1},
		{"malformed chain", []string{"-chain", "1x2"}, 1},
		{"mismatched chain", []string{"-chain", "8x8x8,9x9x9"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code = %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("bad input produced stdout: %q", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("bad input produced no stderr diagnostic")
			}
		})
	}
}

func TestRunGoodInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-m", "64", "-k", "32", "-l", "48", "-buffer", "4096"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d (stderr: %s)", code, stderr.String())
	}
	for _, want := range []string{"operator:", "dataflow:", "NRA class:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("good input produced stderr: %q", stderr.String())
	}
}
