package vet

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer inspects the module one RunAll loads and reports
// diagnostics. Every analyzer sees the whole package set at once; the
// interprocedural ones share the module's call graph (engine.go). The
// module type is unexported, so the suite is closed to this package.
type Analyzer interface {
	Name() string
	Run(m *module) []Diagnostic
}

// AnalyzerTiming records one analyzer's wall-clock cost over a RunAll
// invocation, in suite order.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunAll applies every analyzer to every package and returns the
// combined findings sorted by position. Duplicate packages (the same
// directory named by two patterns) are analyzed once.
func RunAll(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	diags, _ := RunAllTimed(pkgs, analyzers)
	return diags
}

// RunAllTimed is RunAll with a per-analyzer wall-time breakdown, so
// the CLI's -timing flag and CI's analysis-time budget can see where
// the suite spends its time. The shared call graph is built inside the
// first analyzer that asks for it and counts toward that analyzer.
func RunAllTimed(pkgs []*Package, analyzers []Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	m := newModule(pkgs)
	var out []Diagnostic
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		start := time.Now()
		out = append(out, a.Run(m)...)
		timings = append(timings, AnalyzerTiming{Name: a.Name(), Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Message < out[j].Message
	})
	return out, timings
}

// IgnoreList holds vetted exceptions loaded from a .sgfsvet-ignore
// file. Each non-comment line has the form
//
//	<analyzer> <path-fragment> <message-fragment...>
//
// A diagnostic is suppressed when its analyzer matches (or the entry
// uses *), the path fragment occurs in its slash-normalized file path,
// and the rest of the line occurs in its message. Entries are matched
// by content rather than line number so routine edits do not
// invalidate them.
type IgnoreList struct {
	entries []ignoreEntry
	used    []bool
}

type ignoreEntry struct {
	analyzer string
	path     string
	message  string
	line     int
}

// LoadIgnore reads an ignore file; a missing file yields an empty
// list.
func LoadIgnore(path string) (*IgnoreList, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &IgnoreList{}, nil
		}
		return nil, err
	}
	defer f.Close()
	il := &IgnoreList{}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: ignore entry needs <analyzer> <path> <message>", path, lineNo)
		}
		msg := strings.TrimSpace(line[strings.Index(line, fields[1])+len(fields[1]):])
		il.entries = append(il.entries, ignoreEntry{
			analyzer: fields[0],
			path:     fields[1],
			message:  msg,
			line:     lineNo,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	il.used = make([]bool, len(il.entries))
	return il, nil
}

// Match reports whether d is covered by an ignore entry, recording
// which entries fired so stale ones can be reported.
func (il *IgnoreList) Match(d Diagnostic) bool {
	path := filepath.ToSlash(d.Pos.Filename)
	for i, e := range il.entries {
		if e.analyzer != "*" && e.analyzer != d.Analyzer {
			continue
		}
		if !strings.Contains(path, e.path) {
			continue
		}
		if !strings.Contains(d.Message, e.message) {
			continue
		}
		il.used[i] = true
		return true
	}
	return false
}

// Unused returns the 1-based line numbers of entries that never
// matched a diagnostic, so the allowlist cannot silently rot.
func (il *IgnoreList) Unused() []int {
	var out []int
	for i, u := range il.used {
		if !u {
			out = append(out, il.entries[i].line)
		}
	}
	return out
}

// PruneIgnore rewrites the allowlist at path dropping the given
// 1-based line numbers (as reported by Unused after a full run).
// Comments and blank lines are preserved. Returns how many lines were
// removed; a missing file with nothing to drop is not an error.
func PruneIgnore(path string, stale []int) (int, error) {
	if len(stale) == 0 {
		return 0, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	drop := make(map[int]bool, len(stale))
	for _, n := range stale {
		drop[n] = true
	}
	lines := strings.Split(string(data), "\n")
	kept := lines[:0]
	removed := 0
	for i, line := range lines {
		if drop[i+1] {
			removed++
			continue
		}
		kept = append(kept, line)
	}
	if removed == 0 {
		return 0, nil
	}
	return removed, os.WriteFile(path, []byte(strings.Join(kept, "\n")), 0o644)
}
