package lint_test

import (
	"testing"

	"qkd/internal/lint"
	"qkd/internal/lint/linttest"
)

func TestKeyTaint(t *testing.T) {
	for _, pkg := range []string{"keytaint", "auth"} {
		linttest.Run(t, lint.KeyTaint, pkg)
	}
}
