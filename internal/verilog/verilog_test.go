package verilog

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func sampleCircuit() *netlist.Circuit {
	c := netlist.New("sample")
	a := c.AddInput("a")
	b := c.AddInput("b")
	s := c.AddInput("sel")
	n1 := c.AddGate(cell.Nand2, a, b)
	n2 := c.AddGate(cell.Xor2, n1, s)
	n3 := c.AddGate(cell.Mux2, n1, n2, s)
	c.Gates[n3].Drive = cell.X4
	andc := c.AddGate(cell.And2, n2, c.Const1())
	c.AddOutput("y0", n3)
	c.AddOutput("y1", andc)
	return c
}

// equivalent checks functional equality of two circuits by exhaustive
// simulation.
func equivalent(t *testing.T, a, b *netlist.Circuit) bool {
	t.Helper()
	if len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) {
		return false
	}
	v, err := sim.Exhaustive(len(a.PIs))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sim.Run(a, v)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sim.Run(b, v)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := sim.POSignals(a, ra), sim.POSignals(b, rb)
	for i := range pa {
		if sim.CountDiff(pa[i], pb[i]) != 0 {
			return false
		}
	}
	return true
}

func TestWriteContainsStructure(t *testing.T) {
	src := Write(sampleCircuit())
	for _, want := range []string{"module sample", "input a;", "output y0;", "NAND2X1", "MUX2X4", "TIE1", "endmodule"} {
		if !strings.Contains(src, want) {
			t.Errorf("output missing %q:\n%s", want, src)
		}
	}
}

func TestRoundTripEquivalent(t *testing.T) {
	orig := sampleCircuit()
	src := Write(orig)
	parsed, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, src)
	}
	if err := parsed.Validate(); err != nil {
		t.Fatal(err)
	}
	if !equivalent(t, orig, parsed) {
		t.Error("round-tripped circuit is not functionally equivalent")
	}
	if parsed.Gates[parsedGateByFunc(parsed, cell.Mux2)].Drive != cell.X4 {
		t.Error("drive strength lost in round trip")
	}
}

func parsedGateByFunc(c *netlist.Circuit, f cell.Func) int {
	for id, g := range c.Gates {
		if g.Func == f {
			return id
		}
	}
	return -1
}

func TestRoundTripPortOrder(t *testing.T) {
	orig := sampleCircuit()
	parsed, err := Parse(Write(orig))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parsed.PINames(), orig.PINames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("PI order %v != %v", got, want)
	}
	if got, want := parsed.PONames(), orig.PONames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("PO order %v != %v", got, want)
	}
}

func TestWriteSkipsDangling(t *testing.T) {
	c := sampleCircuit()
	// Dangle the AND gate by rewiring its PO to const0.
	c.SetFanin(c.POs[1], 0, c.Const0())
	src := Write(c)
	if strings.Contains(src, " AND2X1 ") {
		t.Errorf("dangling gate must not be written:\n%s", src)
	}
	if !strings.Contains(src, "TIE0") {
		t.Error("const0 must be written once it drives a PO")
	}
}

func TestParseConstantLiterals(t *testing.T) {
	src := `module m (a, y);
  input a;
  output y;
  wire n1;
  AND2X1 g1 (.A(a), .B(1'b1), .Y(n1));
  assign y = n1;
endmodule`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.ConstID(true); !ok {
		t.Error("1'b1 literal must materialize Const1")
	}
}

func TestParseAssignAlias(t *testing.T) {
	src := `module m (a, y);
  input a;
  output y;
  wire n1, n2;
  INVX2 g1 (.A(a), .Y(n1));
  assign n2 = n1;
  assign y = n2;
endmodule`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.POs) != 1 {
		t.Fatal("expected one PO")
	}
	drv := c.Gates[c.POs[0]].Fanin[0]
	if c.Gates[drv].Func != cell.Inv || c.Gates[drv].Drive != cell.X2 {
		t.Errorf("PO driver is %v%v, want INVX2", c.Gates[drv].Func, c.Gates[drv].Drive)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown cell": `module m (a, y); input a; output y; wire n;
			FOO9X1 g (.A(a), .Y(n)); assign y = n; endmodule`,
		"missing Y pin": `module m (a, y); input a; output y; wire n;
			INVX1 g (.A(a)); assign y = n; endmodule`,
		"undeclared net": `module m (a, y); input a; output y;
			INVX1 g (.A(bogus), .Y(y)); endmodule`,
		"double driver": `module m (a, y); input a; output y; wire n;
			INVX1 g1 (.A(a), .Y(n)); INVX1 g2 (.A(a), .Y(n)); assign y = n; endmodule`,
		"no endmodule": `module m (a, y); input a; output y;`,
		"alias loop": `module m (a, y); input a; output y; wire n1, n2;
			assign n1 = n2; assign n2 = n1; assign y = n1; endmodule`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse must fail", name)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `// header
module m (a, y); /* block
comment */ input a; output y; wire n;
INVX1 g (.A(a), .Y(n)); // trailing
assign y = n;
endmodule`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizeIdent(t *testing.T) {
	if got := sanitizeIdent("a[3].x-y"); got != "a_3__x_y" {
		t.Errorf("sanitizeIdent = %q", got)
	}
	if got := sanitizeIdent("3abc"); got != "abc" {
		t.Errorf("leading digit must be dropped, got %q", got)
	}
	if got := sanitizeIdent("$12ab"); got != "ab" {
		t.Errorf("digits after a dropped character must be dropped, got %q", got)
	}
}

func TestWriteUniqueNames(t *testing.T) {
	c := netlist.New("dup")
	a1 := c.AddInput("x")
	a2 := c.AddInput("x") // duplicate port name
	g := c.AddGate(cell.And2, a1, a2)
	c.AddOutput("x", g) // collides again
	src := Write(c)
	if _, err := Parse(src); err != nil {
		t.Fatalf("writer must uniquify colliding names: %v\n%s", err, src)
	}
}

// TestParseErrorMessages pins down the error each malformed-input class
// produces: the alsd daemon ingests untrusted .v uploads through Parse,
// so every rejection must be a clean, located error — never a panic, and
// specific enough for the client to act on.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty source", "", `expected "module"`},
		{"missing module keyword", "modul m (a, y); endmodule", `expected "module"`},
		{"missing module name", "module ; endmodule", "missing module name"},
		{"missing port list", "module m; endmodule", `expected "("`},
		{"unterminated port list", "module m (a, y; endmodule", `expected ")"`},
		{"missing semicolon after header", "module m (a, y) endmodule", `expected ";"`},
		{"unknown cell", `module m (a, y); input a; output y; wire n;
			FOO9X1 g (.A(a), .Y(n)); assign y = n; endmodule`, `unknown cell "FOO9X1"`},
		{"unknown drive suffix", `module m (a, y); input a; output y; wire n;
			INVX9 g (.A(a), .Y(n)); assign y = n; endmodule`, `unknown cell "INVX9"`},
		{"undeclared wire", `module m (a, y); input a; output y;
			INVX1 g (.A(bogus), .Y(y)); endmodule`, `undeclared net "bogus"`},
		{"declared but undriven wire", `module m (a, y); input a; output y; wire n;
			INVX1 g (.A(n), .Y(y)); endmodule`, `net "n" has no driver`},
		{"duplicate driver", `module m (a, y); input a; output y; wire n;
			INVX1 g1 (.A(a), .Y(n)); INVX1 g2 (.A(a), .Y(n)); assign y = n; endmodule`,
			`net "n" driven twice`},
		{"missing output pin", `module m (a, y); input a; output y; wire n;
			INVX1 g (.A(a)); assign y = n; endmodule`, "missing .Y pin"},
		{"missing input pin", `module m (a, b, y); input a, b; output y;
			NAND2X1 g (.A(a), .Y(y)); endmodule`, "missing .B pin"},
		{"missing instance name", `module m (a, y); input a; output y;
			INVX1 (.A(a), .Y(y)); endmodule`, "missing instance name"},
		{"bad wire declaration", `module m (a, y); input a; output y; wire ;
			INVX1 g (.A(a), .Y(y)); endmodule`, "bad wire declaration"},
		{"truncated instance", `module m (a, y); input a; output y;
			INVX1 g (.A(a), .Y(y)`, `expected ")"`},
		{"missing endmodule", `module m (a, y); input a; output y;
			INVX1 g (.A(a), .Y(y));`, "missing endmodule"},
		{"stray character", "module m (a, y); input a; output y; @", "unexpected character"},
		{"undriven output port", `module m (a, y); input a; output y; endmodule`,
			`output "y"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse accepted %q (got circuit with %d gates)", tc.src, len(c.Gates))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want mention of %q", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "verilog:") && !strings.Contains(err.Error(), "netlist") {
				t.Errorf("error %q must identify its source package", err)
			}
		})
	}
}

// TestParseErrorsReportLineNumbers checks the parser locates errors on
// the offending source line.
func TestParseErrorsReportLineNumbers(t *testing.T) {
	src := "module m (a, y);\ninput a;\noutput y;\nwire n;\nFOO9X1 g (.A(a), .Y(n));\nassign y = n;\nendmodule"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("Parse must reject the unknown cell")
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Errorf("error = %q, want it located on line 5", err)
	}
}

// TestParseNeverPanics throws structurally broken fragments at the parser
// (truncations of a valid module plus hostile inputs); every one must
// come back as (nil, error) or a valid circuit — never a panic.
func TestParseNeverPanics(t *testing.T) {
	valid := `module m (a, b, y);
  input a, b;
  output y;
  wire n1, n2;
  NAND2X1 g1 (.A(a), .B(b), .Y(n1));
  INVX2 g2 (.A(n1), .Y(n2));
  assign y = n2;
endmodule`
	var inputs []string
	for i := 0; i <= len(valid); i += 7 {
		inputs = append(inputs, valid[:i])
	}
	inputs = append(inputs,
		"((((((((",
		"module",
		"module m (",
		"module m (); ; ; endmodule",
		"module m (y); output y; assign y = y; endmodule",
		"module m (y); output y; assign y = 1'b0; endmodule; endmodule",
		"module m (a, y); input a; output y; TIE0 t (); endmodule",
		strings.Repeat("wire ", 2000),
	)
	for _, src := range inputs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Parse(%.40q…) panicked: %v", src, r)
				}
			}()
			c, err := Parse(src)
			if err == nil && c == nil {
				t.Errorf("Parse(%.40q…) returned neither circuit nor error", src)
			}
		}()
	}
}
