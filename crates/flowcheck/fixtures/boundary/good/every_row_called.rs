//! Must pass: each row of the table has a caller in non-test library code
//! — `read` through its `trap_*` wrapper, `peek` as an entry of a batch.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> Bytes(Vec<u8>);
    Peek peek sys_peek trap_peek (entry: ContainerEntry) -> Bytes(Vec<u8>);
}

pub fn cat(kernel: &mut Kernel, thread: ObjectId, file: ContainerEntry) -> Result<Vec<u8>> {
    kernel.trap_read(thread, file)
}

pub fn poll(kernel: &mut Kernel, thread: ObjectId, files: &[ContainerEntry]) -> Vec<Completion> {
    let calls = files.iter().map(|&entry| Syscall::Peek { entry }).collect();
    kernel.submit_calls(thread, calls)
}
