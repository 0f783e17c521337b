// Package kern exercises the lintlint directive-hygiene rules: unknown
// or misspelled //lint: directives and escapes that no longer suppress
// any diagnostic.
package kern

import "fixture/internal/fault"

// probe discards a fault error on purpose; the escape is in use.
func probe() {
	//lint:err-ok best-effort probe; the schedule retries it
	_ = fault.Inject()
}

// pure has nothing fallible: its err-ok is stale.
func pure(a, b int) int {
	//lint:err-ok nothing fallible here // want `stale //lint:err-ok: no faultflow diagnostic attaches here anymore`
	return a + b
}

// typo misspells the escape: the discarded error below is NOT suppressed
// and the author should be told before they trust it.
func typo() {
	//lint:eror-ok best-effort probe // want `unknown //lint: directive .eror-ok.; did you mean //lint:err-ok\?`
	_ = fault.Inject()
}

// invented uses a directive nothing owns.
func invented() {
	//lint:frobnicate // want `unknown //lint: directive .frobnicate. \(known: err-ok, lock-ok, oracle-exempt, widen-ok\)`
	_ = 0
}
