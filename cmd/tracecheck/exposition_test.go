package main

import (
	"strings"
	"testing"
)

func TestValidateExpositionTypes(t *testing.T) {
	ok := "# TYPE arda_x counter\narda_x 1\n# TYPE arda_y gauge\narda_y 2\n" +
		"# TYPE arda_h_seconds histogram\narda_h_seconds_bucket{le=\"+Inf\"} 1\narda_h_seconds_sum 0.5\narda_h_seconds_count 1\n"
	if _, err := validateExposition(strings.NewReader(ok)); err != nil {
		t.Fatalf("typed exposition rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"untyped":    "# TYPE arda_x untyped\narda_x 1\n",
		"undeclared": "arda_x 1\n",
		"duplicate":  "# TYPE arda_x counter\n# TYPE arda_x gauge\narda_x 1\n",
	} {
		if _, err := validateExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("%s arda_ scalar accepted", name)
		}
	}
}
