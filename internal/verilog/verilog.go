// Package verilog writes and parses the structural-Verilog subset the flow
// exchanges with the outside world (the paper's flow consumes a
// post-synthesis .v and emits the approximate .v).
//
// The subset is flat gate-level netlists over the cell library: one
// module, scalar ports, wire declarations, cell instances with named pin
// connections (input pins A/B/C in fan-in order, output pin Y), constant
// tie cells, and `assign` statements for output ports and aliases.
package verilog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cell"
	"repro/internal/netlist"
)

var pinNames = [3]string{"A", "B", "C"}

// Write renders the circuit as structural Verilog.
func Write(c *netlist.Circuit) string {
	var b strings.Builder
	names := netNames(c)

	fmt.Fprintf(&b, "// Generated by the DCGWO-ALS flow.\nmodule %s (", nonEmpty(sanitizeIdent(c.Name), "top"))
	var ports []string
	for _, pi := range c.PIs {
		ports = append(ports, names[pi])
	}
	for _, po := range c.POs {
		ports = append(ports, names[po])
	}
	b.WriteString(strings.Join(ports, ", "))
	b.WriteString(");\n")

	for _, pi := range c.PIs {
		fmt.Fprintf(&b, "  input %s;\n", names[pi])
	}
	for _, po := range c.POs {
		fmt.Fprintf(&b, "  output %s;\n", names[po])
	}

	live := c.Live()
	con0, hasCon0 := c.ConstID(false)
	con1, hasCon1 := c.ConstID(true)
	hasCon0 = hasCon0 && live[con0]
	hasCon1 = hasCon1 && live[con1]
	var wires []string
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			wires = append(wires, names[id])
		}
	}
	if hasCon0 {
		wires = append(wires, names[con0])
	}
	if hasCon1 {
		wires = append(wires, names[con1])
	}
	sort.Strings(wires)
	for _, w := range wires {
		fmt.Fprintf(&b, "  wire %s;\n", w)
	}

	if hasCon0 {
		fmt.Fprintf(&b, "  TIE0 tie0_inst (.Y(%s));\n", names[con0])
	}
	if hasCon1 {
		fmt.Fprintf(&b, "  TIE1 tie1_inst (.Y(%s));\n", names[con1])
	}

	for id, g := range c.Gates {
		if !live[id] || g.Func.IsPseudo() {
			continue
		}
		fmt.Fprintf(&b, "  %s%s g%d (", g.Func, g.Drive, id)
		for pin, fi := range g.Fanin {
			fmt.Fprintf(&b, ".%s(%s), ", pinNames[pin], names[fi])
		}
		fmt.Fprintf(&b, ".Y(%s));\n", names[id])
	}

	for _, po := range c.POs {
		fmt.Fprintf(&b, "  assign %s = %s;\n", names[po], names[c.Gates[po].Fanin[0]])
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// netNames assigns a unique Verilog identifier to every gate output.
func netNames(c *netlist.Circuit) []string {
	names := make([]string, len(c.Gates))
	used := map[string]bool{}
	claim := func(id int, base string) {
		n := sanitizeIdent(base)
		if n == "" || used[n] {
			n = fmt.Sprintf("%s_%d", nonEmpty(n, "n"), id)
		}
		used[n] = true
		names[id] = n
	}
	for _, pi := range c.PIs {
		claim(pi, c.Gates[pi].Name)
	}
	for _, po := range c.POs {
		claim(po, c.Gates[po].Name)
	}
	for id, g := range c.Gates {
		if names[id] != "" {
			continue
		}
		switch g.Func {
		case cell.Const0:
			claim(id, "const0_net")
		case cell.Const1:
			claim(id, "const1_net")
		default:
			claim(id, fmt.Sprintf("n%d", id))
		}
	}
	return names
}

func nonEmpty(s, alt string) string {
	if s == "" {
		return alt
	}
	return s
}

// sanitizeIdent maps a name onto [_a-zA-Z0-9]* without a leading digit.
// Its output is its own fixed point, so written names survive Write∘Parse.
func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9' && b.Len() > 0)
		if ok {
			b.WriteRune(r)
		} else if r == '[' || r == ']' || r == '.' || r == '-' {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Canonical parses src and returns the netlist in canonical form with its
// source: Write of a parsed module, parsed again. The second parse gives
// the gate IDs and net names a written module has (Write drops gates that
// reach no output and sanitizes names), so the returned source is a fixed
// point of Write∘Parse and serves as the netlist's content identity.
func Canonical(src string) (*netlist.Circuit, string, error) {
	c, err := Parse(src)
	if err != nil {
		return nil, "", err
	}
	if c, err = Parse(Write(c)); err != nil {
		return nil, "", fmt.Errorf("verilog: re-parsing written module: %w", err)
	}
	return c, Write(c), nil
}

// Parse reads one flat structural module back into a Circuit.
func Parse(src string) (*netlist.Circuit, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.module()
}

type token struct {
	text string
	line int
}

func tokenize(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == '\n':
			line++
			i++
		case ch == ' ' || ch == '\t' || ch == '\r':
			i++
		case ch == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case ch == '/' && i+1 < len(src) && src[i+1] == '*':
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			i += 2
		case isIdentChar(ch) || ch == '\'':
			j := i
			for j < len(src) && (isIdentChar(src[j]) || src[j] == '\'') {
				j++
			}
			toks = append(toks, token{src[i:j], line})
			i = j
		case strings.ContainsRune("(),;.=", rune(ch)):
			toks = append(toks, token{string(ch), line})
			i++
		default:
			return nil, fmt.Errorf("verilog: line %d: unexpected character %q", line, ch)
		}
	}
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || c == '$' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) errf(format string, args ...any) error {
	line := 0
	if p.pos < len(p.toks) {
		line = p.toks[p.pos].line
	} else if len(p.toks) > 0 {
		line = p.toks[len(p.toks)-1].line
	}
	return fmt.Errorf("verilog: line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos].text
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(s string) error {
	if got := p.next(); got != s {
		p.pos--
		return p.errf("expected %q, got %q", s, got)
	}
	return nil
}

type instance struct {
	fn    cell.Func
	drive cell.Drive
	pins  map[string]string
	line  int
}

func (p *parser) module() (*netlist.Circuit, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name := p.next()
	if name == "" || strings.ContainsAny(name, "(),;.=") {
		p.pos--
		return nil, p.errf("missing module name")
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek() != ")" && p.peek() != "" {
		p.next() // port list entries resolved by input/output decls
		if p.peek() == "," {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}

	var inputs, outputs []string
	var insts []instance
	assigns := map[string]string{} // lhs net -> rhs net/constant
	declared := map[string]bool{}

	for {
		switch kw := p.peek(); kw {
		case "":
			return nil, p.errf("unexpected end of file, missing endmodule")
		case "endmodule":
			p.next()
			return buildCircuit(name, inputs, outputs, insts, assigns, declared)
		case "input", "output", "wire":
			p.next()
			for {
				id := p.next()
				if id == "" || id == ";" {
					return nil, p.errf("bad %s declaration", kw)
				}
				switch kw {
				case "input":
					inputs = append(inputs, id)
				case "output":
					outputs = append(outputs, id)
				}
				declared[id] = true
				if sep := p.next(); sep == ";" {
					break
				} else if sep != "," {
					return nil, p.errf("expected ',' or ';' in %s declaration", kw)
				}
			}
		case "assign":
			p.next()
			lhs := p.next()
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs := p.next()
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			assigns[lhs] = rhs
		default:
			inst, err := p.instance()
			if err != nil {
				return nil, err
			}
			insts = append(insts, inst)
		}
	}
}

func (p *parser) instance() (instance, error) {
	cellName := p.next()
	inst := instance{pins: map[string]string{}, line: 0}
	if p.pos > 0 {
		inst.line = p.toks[p.pos-1].line
	}
	switch cellName {
	case "TIE0":
		inst.fn = cell.Const0
	case "TIE1":
		inst.fn = cell.Const1
	default:
		f, d, ok := splitCellName(cellName)
		if !ok {
			return inst, p.errf("unknown cell %q", cellName)
		}
		inst.fn, inst.drive = f, d
	}
	if instName := p.next(); instName == "(" {
		return inst, p.errf("missing instance name for cell %q", cellName)
	}
	if err := p.expect("("); err != nil {
		return inst, err
	}
	for p.peek() == "." {
		p.next()
		pin := p.next()
		if err := p.expect("("); err != nil {
			return inst, err
		}
		net := p.next()
		if err := p.expect(")"); err != nil {
			return inst, err
		}
		inst.pins[pin] = net
		if p.peek() == "," {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return inst, err
	}
	if err := p.expect(";"); err != nil {
		return inst, err
	}
	return inst, nil
}

// splitCellName separates "NAND2X4" into (Nand2, X4).
func splitCellName(s string) (cell.Func, cell.Drive, bool) {
	for d := cell.Drive(0); d < cell.NumDrives; d++ {
		suffix := d.String()
		if strings.HasSuffix(s, suffix) {
			if f, ok := cell.FuncByName(strings.TrimSuffix(s, suffix)); ok {
				return f, d, true
			}
		}
	}
	return 0, 0, false
}

func buildCircuit(name string, inputs, outputs []string, insts []instance,
	assigns map[string]string, declared map[string]bool) (*netlist.Circuit, error) {

	c := netlist.New(name)
	driver := map[string]int{} // net name -> driving gate ID

	for _, in := range inputs {
		driver[in] = c.AddInput(in)
	}

	// First pass: create a gate per instance so nets have IDs.
	gateOf := make([]int, len(insts))
	for i, inst := range insts {
		out, ok := inst.pins["Y"]
		if !ok {
			return nil, fmt.Errorf("verilog: line %d: instance missing .Y pin", inst.line)
		}
		var id int
		switch inst.fn {
		case cell.Const0:
			id = c.Const0()
		case cell.Const1:
			id = c.Const1()
		default:
			// Temporary self-referencing fan-ins; resolved in pass 2.
			fin := make([]int, inst.fn.Arity())
			id = len(c.Gates)
			for p := range fin {
				fin[p] = id
			}
			c.Gates = append(c.Gates, netlist.Gate{Func: inst.fn, Drive: inst.drive, Fanin: fin})
		}
		if old, dup := driver[out]; dup && old != id {
			return nil, fmt.Errorf("verilog: line %d: net %q driven twice", inst.line, out)
		}
		driver[out] = id
		gateOf[i] = id
	}

	resolve := func(net string, line int) (int, error) {
		// Follow assign aliases (bounded to avoid alias loops).
		for hops := 0; hops < 1000; hops++ {
			switch net {
			case "1'b0", "1'h0":
				return c.Const0(), nil
			case "1'b1", "1'h1":
				return c.Const1(), nil
			}
			if id, ok := driver[net]; ok {
				return id, nil
			}
			if next, ok := assigns[net]; ok {
				net = next
				continue
			}
			if !declared[net] {
				return 0, fmt.Errorf("verilog: line %d: undeclared net %q", line, net)
			}
			return 0, fmt.Errorf("verilog: line %d: net %q has no driver", line, net)
		}
		return 0, fmt.Errorf("verilog: line %d: assign alias loop at %q", line, net)
	}

	// Second pass: connect fan-ins.
	for i, inst := range insts {
		if inst.fn.IsConst() {
			continue
		}
		id := gateOf[i]
		for p := 0; p < inst.fn.Arity(); p++ {
			net, ok := inst.pins[pinNames[p]]
			if !ok {
				return nil, fmt.Errorf("verilog: line %d: instance missing .%s pin", inst.line, pinNames[p])
			}
			fi, err := resolve(net, inst.line)
			if err != nil {
				return nil, err
			}
			c.Gates[id].Fanin[p] = fi
		}
	}

	for _, out := range outputs {
		fi, err := resolve(out, 0)
		if err != nil {
			return nil, fmt.Errorf("verilog: output %q: %w", out, err)
		}
		c.AddOutput(out, fi)
	}

	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
