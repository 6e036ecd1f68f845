package mapred

import "context"

// Run executes the job as Stream does, uncancellable, and copies every
// block's chunk into one exactly-sized JobResult.Output. It is the form
// the benchmark measures, and tests and examples compare whole answers
// with; a consumer that reads the rows once takes them from Stream, which
// copies nothing.
func (e *Engine) Run(job *Job) (*JobResult, error) {
	return e.run(context.Background(), job, assemble)
}

// assemble copies the chunks into res.Output: the one place Run copies KV
// headers.
func assemble(res *JobResult, chunks [][]KV) {
	res.Output = make([]KV, 0, res.Rows)
	for _, c := range chunks {
		res.Output = append(res.Output, c...)
	}
}
