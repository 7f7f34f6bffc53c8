package lint

import (
	"go/ast"
	"strings"
)

// The milret annotation grammar. Each directive is a standalone or
// trailing comment of the form
//
//	// milret:<key> <value...>
//
// attached to the declaration it governs:
//
//	milret:guarded-by <mutexField>  on a struct field: the field may only
//	                                be accessed with <mutexField> held on
//	                                the same receiver (guardcheck).
//	milret:locked <mutexField>      on a function: the named mutex of the
//	                                receiver is held at entry (guardcheck).
//	milret:unguarded <reason>       on a function: guardcheck skips it —
//	                                reserved for construction-time code
//	                                where the value is not yet shared.
//	milret:atomic-rename            on a function: this is an audited
//	                                temp→fsync→rename→dir-fsync helper;
//	                                durably verifies its body instead of
//	                                flagging the os.Rename inside it.
//	milret:kernel                   on a function: kernelpure enforces the
//	                                bit-identity discipline inside it.
const directivePrefix = "milret:"

// directive returns the value of "// milret:<key> ..." if any of the
// comment groups carries it. A bare "// milret:<key>" yields ok=true
// with an empty value.
func directive(key string, groups ...*ast.CommentGroup) (value string, ok bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text, found := strings.CutPrefix(c.Text, "//")
			if !found {
				continue
			}
			text = strings.TrimSpace(text)
			text, found = strings.CutPrefix(text, directivePrefix)
			if !found {
				continue
			}
			name, rest, _ := strings.Cut(text, " ")
			if name == key {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

// funcDirective looks the directive up on a function declaration's doc
// comment.
func funcDirective(key string, fn *ast.FuncDecl) (string, bool) {
	return directive(key, fn.Doc)
}
