package report

import (
	"fmt"
	"html"
	"regexp"
	"strings"
)

// The paper's Reporter exports to PDF, DOCX, LaTeX, HTML, and PPTX via the
// RMarkdown toolchain. The stdlib equivalent here is a self-contained HTML
// export: ToHTML converts the Markdown subset the reporter emits (ATX
// headings, pipe tables, fenced code blocks, bullet lists, paragraphs,
// inline code, bold) into a styled standalone page.

// htmlStyle is the embedded stylesheet for exported reports.
const htmlStyle = `
body { font-family: -apple-system, "Segoe UI", sans-serif; max-width: 62rem;
       margin: 2rem auto; padding: 0 1rem; color: #1a1a1a; line-height: 1.5; }
h1 { border-bottom: 2px solid #444; padding-bottom: .3rem; }
h2 { border-bottom: 1px solid #bbb; padding-bottom: .2rem; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #999; padding: .3rem .6rem; text-align: left; }
th { background: #eee; }
pre { background: #f6f6f6; border: 1px solid #ddd; padding: .7rem;
      overflow-x: auto; font-size: .85rem; line-height: 1.25; }
code { background: #f2f2f2; padding: 0 .2rem; }
pre code { background: none; padding: 0; }
`

// ToHTML converts a reporter Markdown document into a standalone HTML page
// titled title.
func ToHTML(title, markdown string) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(title))
	fmt.Fprintf(&b, "<style>%s</style>\n</head>\n<body>\n", htmlStyle)
	b.WriteString(renderBody(markdown))
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// renderBody converts the Markdown subset to HTML fragments.
func renderBody(markdown string) string {
	var b strings.Builder
	lines := strings.Split(markdown, "\n")
	i := 0
	var paragraph []string
	flushPara := func() {
		if len(paragraph) == 0 {
			return
		}
		fmt.Fprintf(&b, "<p>%s</p>\n", inlineHTML(strings.Join(paragraph, " ")))
		paragraph = nil
	}
	for i < len(lines) {
		line := lines[i]
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			flushPara()
			i++
		case strings.HasPrefix(trimmed, "```"):
			flushPara()
			i++
			var code []string
			for i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
				code = append(code, lines[i])
				i++
			}
			if i < len(lines) {
				i++ // closing fence
			}
			fmt.Fprintf(&b, "<pre><code>%s</code></pre>\n",
				html.EscapeString(strings.Join(code, "\n")))
		case strings.HasPrefix(trimmed, "#"):
			flushPara()
			level := 0
			for level < len(trimmed) && trimmed[level] == '#' && level < 6 {
				level++
			}
			text := strings.TrimSpace(trimmed[level:])
			fmt.Fprintf(&b, "<h%d>%s</h%d>\n", level, inlineHTML(text), level)
			i++
		case strings.HasPrefix(trimmed, "|"):
			flushPara()
			var rows []string
			for i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "|") {
				rows = append(rows, strings.TrimSpace(lines[i]))
				i++
			}
			b.WriteString(tableHTML(rows))
		case strings.HasPrefix(trimmed, "- "):
			flushPara()
			b.WriteString("<ul>\n")
			for i < len(lines) && strings.HasPrefix(strings.TrimSpace(lines[i]), "- ") {
				item := strings.TrimPrefix(strings.TrimSpace(lines[i]), "- ")
				fmt.Fprintf(&b, "<li>%s</li>\n", inlineHTML(item))
				i++
			}
			b.WriteString("</ul>\n")
		default:
			paragraph = append(paragraph, trimmed)
			i++
		}
	}
	flushPara()
	return b.String()
}

// tableHTML renders pipe-table rows; a separator row (---) after the first
// row marks it as the header.
func tableHTML(rows []string) string {
	var b strings.Builder
	b.WriteString("<table>\n")
	for ri, row := range rows {
		cells := splitPipeRow(row)
		if isSeparatorRow(cells) {
			continue
		}
		tag := "td"
		if ri == 0 && len(rows) > 1 && isSeparatorRow(splitPipeRow(rows[1])) {
			tag = "th"
		}
		b.WriteString("<tr>")
		for _, c := range cells {
			fmt.Fprintf(&b, "<%s>%s</%s>", tag, inlineHTML(c), tag)
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
	return b.String()
}

func splitPipeRow(row string) []string {
	row = strings.TrimSpace(row)
	row = strings.TrimPrefix(row, "|")
	row = strings.TrimSuffix(row, "|")
	parts := strings.Split(row, "|")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func isSeparatorRow(cells []string) bool {
	if len(cells) == 0 {
		return false
	}
	for _, c := range cells {
		if strings.Trim(c, ":-") != "" {
			return false
		}
	}
	return true
}

// linkPattern matches [text](url) spans after escaping.
var linkPattern = regexp.MustCompile(`\[([^\]]+)\]\(([^)\s]+)\)`)

// inlineHTML escapes text and renders `code`, **bold**, and [text](url)
// spans.
func inlineHTML(s string) string {
	esc := html.EscapeString(s)
	// `code`
	esc = replacePairs(esc, "`", "<code>", "</code>")
	// **bold**
	esc = replacePairs(esc, "**", "<strong>", "</strong>")
	// [text](url) — the URL is already HTML-escaped; restrict schemes to
	// relative paths and http(s).
	esc = linkPattern.ReplaceAllStringFunc(esc, func(m string) string {
		sub := linkPattern.FindStringSubmatch(m)
		url := sub[2]
		if !strings.HasPrefix(url, "/") && !strings.HasPrefix(url, "http://") &&
			!strings.HasPrefix(url, "https://") {
			return m
		}
		return fmt.Sprintf(`<a href="%s">%s</a>`, url, sub[1])
	})
	return esc
}

// replacePairs substitutes alternating open/close tags for a delimiter;
// an unmatched trailing delimiter is left verbatim.
func replacePairs(s, delim, open, close string) string {
	parts := strings.Split(s, delim)
	if len(parts) < 3 {
		return s
	}
	var b strings.Builder
	for i, p := range parts {
		if i == 0 {
			b.WriteString(p)
			continue
		}
		if i%2 == 1 {
			if i == len(parts)-1 {
				// Unmatched: restore the delimiter.
				b.WriteString(delim)
				b.WriteString(p)
			} else {
				b.WriteString(open)
				b.WriteString(p)
			}
		} else {
			b.WriteString(close)
			b.WriteString(p)
		}
	}
	return b.String()
}
