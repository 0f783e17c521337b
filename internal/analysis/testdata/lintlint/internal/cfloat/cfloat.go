// Package cfloat exercises the lintlint directive-hygiene rules:
// unknown or misspelled //lint: directives and escapes that no longer
// suppress any diagnostic. Its path puts it in precwiden's scope.
package cfloat

// sum accumulates in float64 on purpose; the escape is in use.
func sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		//lint:widen-ok the float64 accumulator is the point
		s += float64(v)
	}
	return s
}

// scale widens nothing: its widen-ok is stale.
func scale(x []float32, a float32) {
	for i := range x {
		//lint:widen-ok nothing widens here // want `stale //lint:widen-ok: no precwiden diagnostic attaches here anymore`
		x[i] *= a
	}
}

// typo misspells the escape: the widening below is NOT suppressed and
// the author should be told before they trust it.
func typo(x []float32) float64 {
	var s float64
	for _, v := range x {
		//lint:widen-okk the float64 accumulator is the point // want `unknown //lint: directive .widen-okk.; did you mean //lint:widen-ok\?`
		s += float64(v)
	}
	return s
}

// invented uses a directive nothing owns.
func invented() {
	//lint:frobnicate // want `unknown //lint: directive .frobnicate. \(known: oracle-exempt, widen-ok\)`
	_ = 0
}
