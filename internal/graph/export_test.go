package graph

// SameArrays lets the external tests compare graphs array by array.
var SameArrays = sameArrays
