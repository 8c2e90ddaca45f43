//! `CloudThread`: threads whose bodies run as serverless functions.
//!
//! Starting a cloud thread spawns a lightweight *local* process that
//! synchronously invokes the deployed function (the paper's §4.3: "a
//! standard Java thread is spawned in the client application … blocked
//! until the call to the serverless function terminates"), giving the
//! familiar fork/join pattern. The client fully controls retries (§4.4).

use std::fmt;
use std::time::Duration;

use faas::{FaasError, FaasHandle};
use simcore::sync::{oneshot_in, OneshotReceiver};
use simcore::{Ctx, TraceCtx};

use crate::runnable::{function_name, Runnable};

/// Errors surfaced by [`JoinHandle::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// The invocation failed after exhausting retries.
    Faas(FaasError),
    /// The runnable could not be encoded.
    Encode(String),
}

impl fmt::Display for CloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudError::Faas(e) => write!(f, "cloud thread failed: {e}"),
            CloudError::Encode(e) => write!(f, "could not encode runnable: {e}"),
        }
    }
}

impl std::error::Error for CloudError {}

impl From<FaasError> for CloudError {
    fn from(e: FaasError) -> CloudError {
        CloudError::Faas(e)
    }
}

/// Client-side retry policy for failed invocations (§4.4: "the user may
/// configure how many retries are allowed and/or the time between them").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub max_attempts: u32,
    /// Pause between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, backoff: Duration::from_millis(100) }
    }
}

impl RetryPolicy {
    /// A policy retrying up to `max_attempts` total attempts.
    pub fn retries(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts: max_attempts.max(1), ..RetryPolicy::default() }
    }
}

/// Client-side cost of starting one cloud thread: spawning the local Java
/// thread, serializing the runnable, and opening the HTTPS connection to
/// the invoke API. This serializes at the master and is the "overhead of
/// thread creation" behind the sub-linear tail of Figs. 2b and 3.
pub const THREAD_START_OVERHEAD: Duration = Duration::from_millis(4);

/// Creates cloud threads against a FaaS deployment.
#[derive(Clone, Debug)]
pub struct ThreadFactory {
    faas: FaasHandle,
    retry: RetryPolicy,
}

impl ThreadFactory {
    /// Creates a factory with the default (no-retry) policy.
    pub fn new(faas: FaasHandle) -> ThreadFactory {
        ThreadFactory { faas, retry: RetryPolicy::default() }
    }

    /// Returns a factory with a different retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ThreadFactory {
        self.retry = retry;
        self
    }

    /// Starts a cloud thread running `runnable` (the analogue of
    /// `new CloudThread(runnable).start()` from Listing 1).
    ///
    /// The runnable is serialized *now*; later mutation of the caller's
    /// copy does not affect the running function.
    pub fn start<R: Runnable>(&self, ctx: &mut Ctx, runnable: &R) -> JoinHandle {
        ctx.compute(THREAD_START_OVERHEAD);
        // The thread's whole lifetime is one span, begun in the caller's
        // context; the local proxy process adopts it so invoke spans nest.
        let thread_span = ctx.span_begin("cloud.thread", "core");
        ctx.metric_incr("core.thread_starts");
        let payload = match simcore::codec::to_bytes(runnable) {
            Ok(p) => p,
            Err(e) => {
                // Surface encode failures through join(), keeping start()
                // infallible like Thread::start.
                ctx.span_annotate(thread_span, "error", &e);
                ctx.span_end(thread_span);
                let (tx, rx) = oneshot_in(ctx);
                let msg = e.to_string();
                ctx.spawn("cloudthread-encode-error", move |c| {
                    tx.send(c, Err(CloudError::Encode(msg)));
                });
                return JoinHandle { rx };
            }
        };
        let function = function_name::<R>();
        ctx.span_annotate(thread_span, "function", &function);
        let faas = self.faas.clone();
        let retry = self.retry;
        let seq = self.faas.next_thread_seq();
        let (tx, rx) = oneshot_in(ctx);
        ctx.spawn(&format!("cloudthread-{seq}"), move |c| {
            c.set_trace_ctx(TraceCtx::under(thread_span));
            let mut attempt = 0;
            let result = loop {
                attempt += 1;
                match faas.invoke(c, &function, payload.clone()) {
                    Ok(_) => break Ok(()),
                    Err(e) if attempt >= retry.max_attempts => break Err(CloudError::Faas(e)),
                    Err(_) => {
                        c.metric_incr("core.thread_retries");
                        c.sleep(retry.backoff);
                    }
                }
            };
            if result.is_err() {
                c.span_annotate(thread_span, "outcome", "failed");
            }
            c.span_end(thread_span);
            tx.send(c, result);
        });
        JoinHandle { rx }
    }

    /// Starts one cloud thread per runnable and returns all handles — the
    /// fork half of the fork/join pattern of Listing 1.
    pub fn start_all<R: Runnable>(&self, ctx: &mut Ctx, runnables: &[R]) -> Vec<JoinHandle> {
        runnables.iter().map(|r| self.start(ctx, r)).collect()
    }
}

/// Awaits a cloud thread's completion.
#[derive(Debug)]
pub struct JoinHandle {
    rx: OneshotReceiver<Result<(), CloudError>>,
}

impl JoinHandle {
    /// Blocks until the cloud thread finishes.
    ///
    /// # Errors
    ///
    /// [`CloudError`] when the invocation failed after all retries.
    pub fn join(self, ctx: &mut Ctx) -> Result<(), CloudError> {
        self.rx.recv(ctx)
    }
}

/// Joins a batch of handles, returning the first error if any failed.
///
/// # Errors
///
/// The first [`CloudError`] encountered (all handles are still joined).
pub fn join_all(ctx: &mut Ctx, handles: Vec<JoinHandle>) -> Result<(), CloudError> {
    let mut first_err = None;
    for h in handles {
        if let Err(e) = h.join(ctx) {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
