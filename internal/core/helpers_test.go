package core

import "math/rand"

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
