//! Must fail: a copy-pasted row routes `trap_peek` to `sys_read` — the
//! wrapper's name promises one call and the dispatch arm runs another.
//! Both rows have a library caller, so the spelling is the one finding.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> U64(u64);
    Peek peek sys_read trap_peek (entry: ContainerEntry) -> U64(u64);
}

pub fn sizes(kernel: &mut Kernel, thread: ObjectId, file: ContainerEntry) -> (u64, u64) {
    let read = kernel.trap_read(thread, file).unwrap_or(0);
    (read, kernel.trap_peek(thread, file).unwrap_or(0))
}
