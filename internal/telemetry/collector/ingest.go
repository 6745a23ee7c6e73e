package collector

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// ingestProm parses a scraped Prometheus text exposition 0.0.4 body into
// normalized samples. TYPE comments type the families; sample lines of a
// histogram family (_bucket/_sum/_count) attach to the base family so
// the re-export keeps one TYPE block per histogram.
func ingestProm(body []byte) ([]ingestSample, error) {
	typeOf := make(map[string]string)
	var out []ingestSample
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typeOf[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return out, err
		}
		if s.fullName == "" {
			return out, fmt.Errorf("sample without a metric name: %s", line)
		}
		s.family, s.typ = promFamily(s.fullName, typeOf)
		if s.typ == "counter" || strings.HasSuffix(s.fullName, "_bucket") ||
			strings.HasSuffix(s.fullName, "_sum") || strings.HasSuffix(s.fullName, "_count") {
			s.counter = true
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("scan exposition: %w", err)
	}
	return out, nil
}

// promFamily resolves a sample name to its family and type: the name
// itself when TYPEd, else the base name of a histogram series, else
// untyped.
func promFamily(name string, typeOf map[string]string) (family, typ string) {
	if t, ok := typeOf[name]; ok {
		return name, t
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suffix); base != name && typeOf[base] == "histogram" {
			return base, "histogram"
		}
	}
	return name, "untyped"
}

// parsePromSample splits one exposition sample line into name, rendered
// label key and value. Label values may contain spaces and escaped
// quotes, so the label block is scanned with quote awareness rather than
// split on whitespace.
func parsePromSample(line string) (ingestSample, error) {
	var s ingestSample
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		s.fullName = line[:brace]
		rest := line[brace:]
		end := labelBlockEnd(rest)
		if end < 0 {
			return s, fmt.Errorf("unterminated label block: %s", line)
		}
		s.labelKey = rest[:end+1]
		rest = strings.TrimSpace(rest[end+1:])
		v, err := parsePromValue(rest)
		if err != nil {
			return s, fmt.Errorf("bad sample %q: %w", line, err)
		}
		s.value = v
		return s, nil
	}
	if space < 0 {
		return s, fmt.Errorf("bad sample line %q", line)
	}
	s.fullName = line[:space]
	v, err := parsePromValue(strings.TrimSpace(line[space+1:]))
	if err != nil {
		return s, fmt.Errorf("bad sample %q: %w", line, err)
	}
	s.value = v
	return s, nil
}

// labelBlockEnd returns the index of the '}' closing a leading '{...}'
// label block, respecting quoted values, -1 if unterminated.
func labelBlockEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

// parsePromValue parses an exposition sample value (a float, +Inf or
// NaN; a trailing timestamp field is ignored).
func parsePromValue(s string) (float64, error) {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}
