// Package service (fixture) is a package detrange once skipped: its map
// ranges are held to the same shapes as everyone else's.
package service

import "strings"

func badJoin(headers map[string]string) string {
	var b strings.Builder
	for k, v := range headers { // want `non-deterministic iteration over map headers`
		b.WriteString(k + "=" + v + ";")
	}
	return b.String()
}
