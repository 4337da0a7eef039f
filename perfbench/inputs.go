package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/gen/regexgen"
	"repro/internal/netlist"
	"repro/internal/service"
)

// engine is one compact regex engine of the input pool.
type engine struct {
	name, pattern string
}

// enginePatterns are the nine compact engines already used by the
// repository: the four RegExpSet signatures and the three Xceiver
// protocols of experiments.BuildMultiSuites, and the two patterns of the
// root benchmarks' miniModes. Each maps to 24–57 4-LUTs.
var enginePatterns = []engine{
	{"re0", `GET /(a|b)x+`},
	{"re1", `POST /(c|d)y+`},
	{"re2", `PUT /(e|f)z+`},
	{"re3", `HEAD /(g|h)w+`},
	{"web", `GET /(admin|login)\?\w{4,}`},
	{"ftp", `(USER|PASS) \w{8,}`},
	{"dns", `\x00\x01(a|b|c)\w{6,}`},
	{"m1", `GET /(a|b)[\w]{6,}`},
	{"m2", `POST /(c|d)[\w]{6,}`},
}

// engineBLIF generates one engine and returns its BLIF text.
func engineBLIF(name, pattern string) (string, error) {
	n, err := regexgen.Generate(name, pattern, regexgen.Options{})
	if err != nil {
		return "", fmt.Errorf("generate %s %q: %w", name, pattern, err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, n); err != nil {
		return "", fmt.Errorf("write %s: %w", name, err)
	}
	return buf.String(), nil
}

// group is one compile input: a set of modes, each a pattern and its BLIF.
type group struct {
	label    string
	idx      []int // engine indices, or the edited pair's engines
	patterns []string
	blifs    []string
}

func (g *group) request(baselineKey string) *service.CompileRequest {
	req := &service.CompileRequest{Effort: flowEffort, Seed: flowSeed, BaselineKey: baselineKey}
	for i, b := range g.blifs {
		req.Modes = append(req.Modes, service.Mode{Name: enginePatterns[g.idx[i]].name, BLIF: b})
	}
	return req
}

func (g *group) body(baselineKey string) []byte {
	b, err := json.Marshal(g.request(baselineKey))
	if err != nil {
		panic(err) // every field is a string or a number
	}
	return b
}

// inputs holds the generated engines and the correctness check's
// references.
type inputs struct {
	blifs []string
	refs  refs
}

func newInputs() (*inputs, error) {
	in := &inputs{refs: refs{}}
	for _, e := range enginePatterns {
		b, err := engineBLIF(e.name, e.pattern)
		if err != nil {
			return nil, err
		}
		in.blifs = append(in.blifs, b)
	}
	return in, nil
}

func (in *inputs) group(idx ...int) *group {
	g := &group{idx: idx}
	var names []string
	for _, i := range idx {
		g.patterns = append(g.patterns, enginePatterns[i].pattern)
		g.blifs = append(g.blifs, in.blifs[i])
		names = append(names, enginePatterns[i].name)
	}
	g.label = strings.Join(names, "+")
	return g
}

// pairs returns all 36 pairs of engines in a seeded order.
func (in *inputs) pairs(rng *rand.Rand) []*group {
	var out []*group
	for i := range enginePatterns {
		for j := i + 1; j < len(enginePatterns); j++ {
			out = append(out, in.group(i, j))
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// triples draws n distinct 3-mode groups uniformly from all 84, with no
// look at how they compile.
func (in *inputs) triples(rng *rand.Rand, n int) []*group {
	var all [][]int
	for i := range enginePatterns {
		for j := i + 1; j < len(enginePatterns); j++ {
			for k := j + 1; k < len(enginePatterns); k++ {
				all = append(all, []int{i, j, k})
			}
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	var out []*group
	for _, idx := range all[:n] {
		out = append(out, in.group(idx...))
	}
	return out
}

// catalogueSeed draws the fixed op sets: the pool and the edits. Every
// run measures the same work and the workload seed only orders it, so a
// run's medians do not swing with which heavy inputs a seed happens to
// draw; compile costs here range over two orders of magnitude.
const catalogueSeed = 0

// pool is the request pool of the warm and delta workloads: the nine
// pairs along one cycle through all engines, so every engine sits in
// exactly two pairs.
func (in *inputs) pool() []*group {
	perm := rand.New(rand.NewSource(catalogueSeed)).Perm(len(enginePatterns))
	var out []*group
	for i, a := range perm {
		b := perm[(i+1)%len(perm)]
		if a > b {
			a, b = b, a
		}
		out = append(out, in.group(a, b))
	}
	return out
}

// editPattern applies one seeded one-token edit to a pattern: a literal
// letter becomes another letter of the same case that the pattern does
// not use, or a {n,} repeat count moves by one. Escapes (\w, \?, \x00)
// and character classes are left alone.
func editPattern(p string, rng *rand.Rand) (string, string) {
	type site struct{ at, end int }
	var letters, counts []site
	for i := 0; i < len(p); i++ {
		c := p[i]
		switch {
		case c == '\\':
			if i+1 < len(p) && p[i+1] == 'x' {
				i += 3
			} else {
				i++
			}
		case c == '[':
			for i < len(p) && p[i] != ']' {
				i++
			}
		case c == '{':
			j := i + 1
			for j < len(p) && p[j] >= '0' && p[j] <= '9' {
				j++
			}
			if j > i+1 {
				counts = append(counts, site{i + 1, j})
			}
			for i < len(p) && p[i] != '}' {
				i++
			}
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			letters = append(letters, site{i, i + 1})
		}
	}
	k := rng.Intn(len(letters) + len(counts))
	if k >= len(letters) {
		s := counts[k-len(letters)]
		n, _ := strconv.Atoi(p[s.at:s.end])
		m := n + 1
		if n > 1 && rng.Intn(2) == 0 {
			m = n - 1
		}
		out := p[:s.at] + strconv.Itoa(m) + p[s.end:]
		return out, fmt.Sprintf("{%d,}->{%d,}", n, m)
	}
	s := letters[k]
	old := p[s.at]
	base := byte('a')
	if old <= 'Z' {
		base = 'A'
	}
	var free []byte
	for c := base; c < base+26; c++ {
		if !strings.ContainsRune(p, rune(c)) {
			free = append(free, c)
		}
	}
	c := free[rng.Intn(len(free))]
	return p[:s.at] + string(c) + p[s.end:], fmt.Sprintf("%c->%c@%d", old, c, s.at)
}

// edit is one edit-delta op: a pool pair with one mode edited, sent with
// the pair's baseline key.
type edit struct {
	base *group // the pool pair
	g    *group // the edited pair
	desc string
}

// editsPerMode is how many edits of each pool mode a run compiles.
const editsPerMode = 2

// catalogue returns the edits of a run: editsPerMode distinct edits of
// every mode of every pool pair, drawn from catalogueSeed. No edit
// repeats within a run: a repeat would be a result-tier hit, not a delta
// compile.
func catalogue(pool []*group) ([]edit, error) {
	rng := rand.New(rand.NewSource(catalogueSeed))
	seen := map[string]bool{}
	var out []edit
	for _, p := range pool {
		for m := range p.idx {
			for k := 0; k < editsPerMode; k++ {
				e, err := newEdit(p, m, rng, seen)
				if err != nil {
					return nil, err
				}
				out = append(out, e)
			}
		}
	}
	return out, nil
}

func newEdit(p *group, m int, rng *rand.Rand, seen map[string]bool) (edit, error) {
	for tries := 0; tries < 100; tries++ {
		np, desc := editPattern(p.patterns[m], rng)
		if seen[np] {
			continue
		}
		blif, err := engineBLIF(enginePatterns[p.idx[m]].name, np)
		if err != nil {
			continue // an edit the generator refuses is redrawn
		}
		seen[np] = true
		g := &group{idx: p.idx, label: p.label,
			patterns: append([]string(nil), p.patterns...), blifs: append([]string(nil), p.blifs...)}
		g.patterns[m], g.blifs[m] = np, blif
		return edit{base: p, g: g, desc: fmt.Sprintf("mode %d %s", m, desc)}, nil
	}
	return edit{}, fmt.Errorf("no fresh edit of %s mode %d", p.label, m)
}
