package service

import "encoding/json"

// Job journal event names. The journal is an append-only JSONL event log
// (one fsynced line per state transition), so the complete job table —
// queue included — is reconstructible after any crash by replaying it.
const (
	evSubmit   = "submit"   // carries the JobSpec
	evStart    = "start"    // an attempt began; carries the cumulative attempt count
	evRequeue  = "requeue"  // a drain interrupted the job; it goes back to the queue
	evDone     = "done"     // carries the result payload
	evFailed   = "failed"   // terminal failure; carries the error text
	evCanceled = "canceled" // canceled by the client
)

// jobEvent is one line of the job journal.
type jobEvent struct {
	ID       string
	Event    string
	Spec     *JobSpec        `json:",omitempty"`
	Attempts int             `json:",omitempty"`
	Error    string          `json:",omitempty"`
	Result   json.RawMessage `json:",omitempty"`
}
