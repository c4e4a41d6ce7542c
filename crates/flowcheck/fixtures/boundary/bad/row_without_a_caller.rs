//! Must fail: the table has a row — `peek` — that the library never calls.
//! Its one use is in a test, which is an observer: to the library the row
//! is kernel surface nobody needs, and whatever it skips, nothing shows.
syscalls! {
    Read read sys_read trap_read (entry: ContainerEntry) -> Bytes(Vec<u8>);
    Peek peek sys_peek trap_peek (entry: ContainerEntry) -> Bytes(Vec<u8>);
}

pub fn cat(kernel: &mut Kernel, thread: ObjectId, file: ContainerEntry) -> Result<Vec<u8>> {
    kernel.trap_read(thread, file)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peek_reads_without_consuming() {
        assert_eq!(kernel.trap_peek(thread, file).unwrap(), b"x");
    }
}
