//! A small synchronous client for the wire protocol — what `revpebble
//! submit` and the loopback tests drive.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::Request;

/// A persistent connection to a `revpebble-serve` daemon: send frames,
/// read response lines, in order. Dropping the client closes the
/// connection (a mid-solve drop cancels the session server-side).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one raw frame line (a newline is appended) and blocks for
    /// the matching response line, returned without its newline.
    pub fn send_raw(&mut self, frame: &str) -> std::io::Result<String> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// [`send_raw`](Self::send_raw) of a typed [`Request`].
    pub fn send(&mut self, request: &Request) -> std::io::Result<String> {
        self.send_raw(&request.to_json())
    }

    /// Writes a frame without waiting for the response — pipelining,
    /// and the "disconnect mid-solve" test shape (send, then drop).
    pub fn send_only(&mut self, frame: &str) -> std::io::Result<()> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next response line (for frames sent with
    /// [`send_only`](Self::send_only)).
    pub fn read_response(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// One-shot convenience: connect, send one frame, await one response
/// under `timeout`, close. This is `revpebble submit`'s engine. The wait
/// is one blocking read bounded by `timeout`; no response in time (and
/// any zero `timeout`, which a socket cannot express) is
/// [`ErrorKind::TimedOut`].
pub fn submit_frame(
    addr: impl ToSocketAddrs,
    frame: &str,
    timeout: Duration,
) -> std::io::Result<String> {
    let timed_out = || {
        std::io::Error::new(
            ErrorKind::TimedOut,
            format!("no response within {timeout:?}"),
        )
    };
    let mut client = Client::connect(addr)?;
    if timeout.is_zero() {
        return Err(timed_out());
    }
    client.reader.get_ref().set_read_timeout(Some(timeout))?;
    client.send_raw(frame).map_err(|err| match err.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => timed_out(),
        _ => err,
    })
}
