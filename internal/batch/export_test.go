package batch

import "io"

// NewJSONLSink streams cells to w, for tests that read the journal back
// from memory. Production journals are files (CreateJSONL, ReplaceJSONL).
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }
