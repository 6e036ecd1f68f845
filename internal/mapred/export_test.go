package mapred

import "weak"

// Reachable returns a probe of the arrays behind the chunk's segment
// headers and row ends: how many of them are still reachable. It holds
// weak pointers only, so it keeps none of them alive.
func Reachable(c Chunk) func() int {
	var ws []func() bool
	if cap(c.segs) > 0 {
		w := weak.Make(&c.segs[:1][0])
		ws = append(ws, func() bool { return w.Value() != nil })
	}
	for _, s := range c.segs {
		if cap(s.ends) > 0 {
			w := weak.Make(&s.ends[:1][0])
			ws = append(ws, func() bool { return w.Value() != nil })
		}
	}
	return func() int {
		n := 0
		for _, alive := range ws {
			if alive() {
				n++
			}
		}
		return n
	}
}
