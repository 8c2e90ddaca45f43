//! Stackful coroutines: how a thread process blocks without an OS thread.
//!
//! A thread process's body runs on a [`Stack`] of its own. The run thread
//! switches to it where it would call an actor's `on_wake`, and a blocking
//! call ([`Yielder::suspend`]) switches back, so the body stays plain
//! blocking code while the whole simulation runs on the thread that called
//! `Sim::run_*`. This file is the mechanism, and the only `unsafe` in
//! simcore:
//!
//! - a [`Stack`] is a 256 KB anonymous mapping above a `PROT_NONE` guard
//!   page, so an overflow faults instead of running into other memory;
//! - `switch` saves the x86_64 SysV callee-saved registers and the MXCSR
//!   and x87 control words on the current stack, stores the stack pointer,
//!   loads another one and restores what was saved on it;
//! - `trampoline` runs the body under `catch_unwind`, so no unwind ever
//!   crosses the assembly: a panic ends the coroutine with its payload;
//! - [`Coroutine::kill`] resumes a suspended body with a flag that makes
//!   its pending suspend, and every later one, return `false`, so the body
//!   unwinds on its own stack and ends. Dropping a suspended coroutine
//!   kills it the same way.

#![expect(unsafe_code, reason = "the stack switch and the mmap'd stacks; see the module docs")]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simcore's coroutine switch (src/coro.rs) is x86_64 SysV assembly over Linux mmap; \
     another target needs its own `switch` and `Stack`"
);

use std::ffi::{c_int, c_long, c_void};
use std::mem::{align_of, size_of};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

/// Usable bytes of one stack: what each process's OS thread had before.
const STACK_BYTES: usize = 256 * 1024;
/// The inaccessible page below each stack.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;

// The libc calls behind `Stack`; std links libc on this target.
unsafe extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// One coroutine stack: a guard page, then [`STACK_BYTES`] that grow down
/// toward it. Unmapped on drop.
pub(crate) struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    /// Maps a fresh stack.
    ///
    /// # Panics
    ///
    /// Panics if the mapping or its guard page cannot be made.
    pub(crate) fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS;
        // SAFETY: a new anonymous mapping at an address the OS picks
        // overlaps nothing that exists.
        let base = unsafe { mmap(ptr::null_mut(), len, PROT_READ | PROT_WRITE, flags, -1, 0) };
        assert!(base as isize != -1, "mmap of a {len}-byte coroutine stack failed");
        // SAFETY: the first page of the mapping just made, which nothing uses.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(guarded, 0, "mprotect of a coroutine stack's guard page failed");
        Stack { base: NonNull::new(base.cast()).expect("mmap never returns page zero") }
    }

    /// Where the coroutine's [`Control`] lives: the top of the stack, so
    /// its address stays put while the `Coroutine` value moves.
    fn control(&self) -> *mut Control {
        let top = self.base.as_ptr() as usize + GUARD_BYTES + STACK_BYTES;
        ((top - size_of::<Control>()) & !(align_of::<Control>() - 1)) as *mut Control
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping `new` made; no coroutine runs on it any more,
        // since a `Stack` is only handed back once its body has ended.
        unsafe { munmap(self.base.as_ptr().cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

/// What the two sides of one coroutine share, at the top of its stack.
struct Control {
    /// The coroutine's stack pointer while it is suspended.
    sp: *mut u8,
    /// Its resumer's stack pointer while it runs.
    resumer: *mut u8,
    /// Set by [`Coroutine::kill`]: a suspend returns `false` at once.
    killed: bool,
    /// How the body ended, once it has.
    done: Option<std::thread::Result<()>>,
}

/// Where [`Coroutine::start`] leaves a body of type `F` for the
/// trampoline: right under the control block.
fn body_slot<F>(control: *mut Control) -> *mut F {
    ((control as usize - size_of::<F>()) & !(align_of::<F>() - 1)) as *mut F
}

/// Initial MXCSR (all exceptions masked, round to nearest) and x87 control
/// word (64-bit precision, all exceptions masked): the SysV defaults.
const INITIAL_FP_STATE: u64 = 0x1F80 | (0x037F << 32);

/// Saves the callee-saved state on the current stack and its stack pointer
/// in `*save`, then loads `to` and returns into whatever saved it there,
/// with `arg` in the first-argument register: a fresh stack's trampoline
/// takes its control block that way.
///
/// # Safety
///
/// `save` must be writable, and `to` a stack pointer saved by `switch`
/// (or laid out by [`Coroutine::start`]) on a stack that nothing else runs
/// on and that stays mapped until it is switched away from again.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8, arg: *mut Control) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdi, rdx",
        "ret",
    )
}

/// The first frame of every coroutine: runs the body left in its slot,
/// records how it ended and switches back for good.
///
/// # Safety
///
/// Entered only through `switch` from [`Coroutine::start`], on the stack
/// whose control block is `control`, with a body of type `F` in its slot.
unsafe extern "C" fn trampoline<F: FnOnce(Yielder)>(control: *mut Control) -> ! {
    let yielder = Yielder { control: NonNull::new(control).expect("start passes its control") };
    // SAFETY: `start` moved the body into its slot, and only this read
    // takes it out.
    let body = unsafe { body_slot::<F>(control).read() };
    let done = catch_unwind(AssertUnwindSafe(|| body(yielder)));
    // SAFETY: the resumer is suspended in `switch` and reads `done` only
    // after this switch back; nothing is left on this frame to drop.
    unsafe {
        (*control).done = Some(done);
        switch(&raw mut (*control).sp, (*control).resumer, ptr::null_mut());
    }
    // A coroutine whose body has ended is never resumed.
    std::process::abort()
}

/// How a resume ended.
pub(crate) enum Step {
    /// The body blocked in [`Yielder::suspend`].
    Suspended(Coroutine),
    /// The body returned (`Ok`) or unwound (`Err` with the payload); its
    /// stack is free for the next one.
    Done(Stack, std::thread::Result<()>),
}

/// A body suspended on its own stack.
pub(crate) struct Coroutine {
    /// `None` only once the body has ended and the stack was handed back.
    stack: Option<Stack>,
}

impl Coroutine {
    /// Starts `body` on `stack` and runs it until it suspends or ends.
    pub(crate) fn start<F: FnOnce(Yielder) + 'static>(stack: Stack, body: F) -> Step {
        let control = stack.control();
        let slot = body_slot::<F>(control);
        // The switch frame `switch` restores: FP state, r15..r12, rbx and
        // rbp all zero, then `trampoline` as the return address and a null
        // one above it, where a caller's would be, which ends backtraces.
        let frame = ((slot as usize & !15) - 9 * 8) as *mut u64;
        // SAFETY: every write lands inside the stack's read-write part,
        // which no coroutine is using: `stack` is owned here.
        unsafe {
            control.write(Control {
                sp: frame.cast(),
                resumer: ptr::null_mut(),
                killed: false,
                done: None,
            });
            slot.write(body);
            frame.write(INITIAL_FP_STATE);
            for reg in 1..=6 {
                frame.add(reg).write(0);
            }
            frame.add(7).write(trampoline::<F> as *const () as u64);
            frame.add(8).write(0);
        }
        Coroutine { stack: Some(stack) }.resume()
    }

    fn control(&self) -> *mut Control {
        self.stack.as_ref().expect("a live coroutine has its stack").control()
    }

    /// Switches to the coroutine; returns when it next suspends or ends.
    fn switch_in(&mut self) -> Option<std::thread::Result<()>> {
        let control = self.control();
        // SAFETY: the coroutine is suspended (or fresh) with its stack
        // pointer in `sp`; it saves ours in `resumer` and switches back to
        // it before this returns, having set `done` if its body ended.
        unsafe {
            switch(&raw mut (*control).resumer, (*control).sp, control);
            (*control).done.take()
        }
    }

    /// Runs the body on until it suspends again or ends.
    pub(crate) fn resume(mut self) -> Step {
        match self.switch_in() {
            None => Step::Suspended(self),
            Some(done) => {
                Step::Done(self.stack.take().expect("a live coroutine has its stack"), done)
            }
        }
    }

    /// Ends the body: its pending suspend returns `false`, and so does any
    /// later one without switching out, so one resume unwinds it to the
    /// end. Returns the stack and how the body ended.
    pub(crate) fn kill(mut self) -> (Stack, std::thread::Result<()>) {
        let done = self.unwind().expect("a killed body cannot suspend");
        (self.stack.take().expect("a live coroutine has its stack"), done)
    }

    /// Sets the kill flag and switches in: `None` only if the body
    /// suspended anyway, which `Yielder::suspend` rules out.
    fn unwind(&mut self) -> Option<std::thread::Result<()>> {
        // SAFETY: the control block of a suspended coroutine, whose side
        // reads `killed` only once switched back in.
        unsafe { (*self.control()).killed = true };
        self.switch_in()
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        if self.stack.is_some() {
            drop(self.unwind());
        }
    }
}

/// A running body's way back to its resumer; it lives on the body's own
/// stack.
pub(crate) struct Yielder {
    control: NonNull<Control>,
}

impl Yielder {
    /// Switches back to whoever resumed the coroutine. `true` once resumed
    /// to go on; `false`, at once, when the coroutine is being killed.
    ///
    /// # Panics
    ///
    /// Panics if called off the coroutine's own stack.
    pub(crate) fn suspend(&self) -> bool {
        let control = self.control.as_ptr();
        let here = &raw const control as usize;
        assert!(
            here < control as usize && here > control as usize - STACK_BYTES,
            "a coroutine suspended from outside its own stack"
        );
        // SAFETY: this is the coroutine's stack, so its resumer is
        // suspended in `switch` with its stack pointer in `resumer`, and
        // switches back here only through `switch_in`.
        unsafe {
            if (*control).killed {
                return false;
            }
            switch(&raw mut (*control).sp, (*control).resumer, ptr::null_mut());
            !(*control).killed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::Arc;

    #[test]
    fn a_body_suspends_resumes_and_ends() {
        let log = Rc::new(Cell::new(0));
        let seen = log.clone();
        let mut step = Coroutine::start(Stack::new(), move |y: Yielder| {
            for _ in 0..3 {
                seen.set(seen.get() + 1);
                assert!(y.suspend());
            }
        });
        let mut resumes = 0;
        let stack = loop {
            match step {
                Step::Suspended(c) => {
                    resumes += 1;
                    assert_eq!(log.get(), resumes);
                    step = c.resume();
                }
                Step::Done(stack, done) => {
                    done.expect("the body returns");
                    break stack;
                }
            }
        };
        assert_eq!(resumes, 3);
        // The stack serves a second body.
        let Step::Done(_, done) = Coroutine::start(stack, |_: Yielder| panic!("second body"))
        else {
            panic!("a body that panics ends");
        };
        assert_eq!(*done.unwrap_err().downcast::<&str>().unwrap(), "second body");
    }

    #[test]
    fn a_killed_body_unwinds_on_its_own_stack() {
        let held = Arc::new(());
        let h = held.clone();
        let Step::Suspended(c) = Coroutine::start(Stack::new(), move |y: Yielder| {
            let _held = h;
            let _deep = [0u8; 64 * 1024]; // well inside the stack
            assert!(!y.suspend(), "resumed only by the kill");
            assert!(!y.suspend(), "a killed body never switches out again");
        }) else {
            panic!("the body suspends");
        };
        assert_eq!(Arc::strong_count(&held), 2);
        let (_, done) = c.kill();
        assert!(done.is_ok());
        assert_eq!(Arc::strong_count(&held), 1);

        // Dropping a suspended coroutine kills it too.
        let h = held.clone();
        let step = Coroutine::start(Stack::new(), move |y: Yielder| {
            let _held = h;
            y.suspend();
        });
        assert_eq!(Arc::strong_count(&held), 2);
        drop(step);
        assert_eq!(Arc::strong_count(&held), 1);
    }
}
