package verilog

import "testing"

// FuzzVerilogCanonical checks the identity an uploaded netlist gets: for
// any input, either Parse fails, or Canonical succeeds and its source
// parses back and writes out unchanged. The committed corpus under
// testdata/fuzz/FuzzVerilogCanonical holds a module whose name sanitizes
// to nothing, a module with a gate that reaches no output, and a port
// whose sanitized name kept digits that a second sanitization drops.
func FuzzVerilogCanonical(f *testing.F) {
	f.Add(Write(sampleCircuit()))
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err != nil {
			return
		}
		_, canon, err := Canonical(src)
		if err != nil {
			t.Fatalf("parsed input has no canonical form: %v\ninput:\n%s", err, src)
		}
		c, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		if again := Write(c); again != canon {
			t.Fatalf("canonical form is not a fixed point of Write∘Parse:\n%s\nbecame:\n%s", canon, again)
		}
	})
}
