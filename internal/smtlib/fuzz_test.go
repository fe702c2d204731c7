package smtlib

import (
	"io"
	"testing"
)

// FuzzRun feeds arbitrary bytes to the interpreter. The only property is
// that Run never panics: malformed input must come back as an error. The
// corpus is seeded with every script the unit tests run, well-formed and
// malformed.
func FuzzRun(f *testing.F) {
	for _, src := range parseErrorScripts {
		f.Add(src)
	}
	for _, src := range []string{
		satWithModelScript, unsatScript, signedComparisonsScript,
		boolDeclarationsScript, incrementalAssertsScript, commentsScript,
		exitStopsExecutionScript, divisionScript, divisionByZeroScript,
		letScript, letShadowingScript, pushPopScript,
		"(assert (let ((x)) true))", "(pop)",
	} {
		f.Add(src)
	}
	for _, id := range identities {
		f.Add(identityScript(id))
	}
	f.Fuzz(func(t *testing.T, src string) {
		_ = NewInterp(io.Discard).Run(src)
	})
}
