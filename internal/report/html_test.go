package report

import (
	"strings"
	"testing"
)

func TestToHTMLBasics(t *testing.T) {
	md := `# Title

Some **bold** text with ` + "`code`" + `.

## Section

- first
- second

| a | b |
| --- | --- |
| 1 | 2 |

` + "```" + `
raw <plot>
` + "```" + `
`
	out := ToHTML("My Report", md)
	for _, want := range []string{
		"<title>My Report</title>",
		"<h1>Title</h1>",
		"<h2>Section</h2>",
		"<strong>bold</strong>",
		"<code>code</code>",
		"<ul>", "<li>first</li>", "<li>second</li>",
		"<th>a</th>", "<td>1</td>",
		"<pre><code>raw &lt;plot&gt;</code></pre>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(out, "---") {
		t.Error("table separator row leaked into output")
	}
}

func TestToHTMLEscapesInjection(t *testing.T) {
	out := ToHTML("<script>", "# <script>alert(1)</script>\n\nx < y & z\n")
	if strings.Contains(out, "<script>alert") {
		t.Error("unescaped script tag")
	}
	if !strings.Contains(out, "&lt;script&gt;alert") {
		t.Error("heading not escaped")
	}
	if !strings.Contains(out, "x &lt; y &amp; z") {
		t.Error("paragraph not escaped")
	}
}

func TestUnmatchedDelimiters(t *testing.T) {
	out := renderBody("odd `backtick here\n")
	if strings.Contains(out, "<code>") {
		t.Errorf("unmatched backtick rendered as code: %q", out)
	}
	if !strings.Contains(out, "`backtick") {
		t.Errorf("delimiter lost: %q", out)
	}
}

func TestFullReportConvertsCleanly(t *testing.T) {
	res := runExperiment(t, "machine1", "hotspot", 200)
	md := Result(res, Options{})
	out := ToHTML("hotspot", md)
	for _, want := range []string{"<h1>", "<h2>", "<table>", "<pre><code>"} {
		if !strings.Contains(out, want) {
			t.Errorf("converted report missing %q", want)
		}
	}
	// Histogram bars must survive inside <pre>.
	if !strings.Contains(out, "█") {
		t.Error("plot characters lost")
	}
}
