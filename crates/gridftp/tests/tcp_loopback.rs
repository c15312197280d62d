//! End-to-end GridFTP over real loopback TCP: GSI handshake, parallel
//! extended-block transfers, partial retrieval, restart, CRC verification,
//! store, delete.

use bytes::Bytes;
use gdmp_gridftp::client::{ClientConfig, ClientError, GridFtpClient};
use gdmp_gridftp::crc::crc32;
use gdmp_gridftp::server::{GridFtpServer, ServerConfig};
use gdmp_gridftp::store::MemStore;
use gdmp_gsi::cert::{CertificateAuthority, KeyPair};
use gdmp_gsi::name::DistinguishedName;
use gdmp_gsi::proxy::CredentialChain;

struct Grid {
    ca: CertificateAuthority,
    server_cred: CredentialChain,
    client_cred: CredentialChain,
}

fn grid() -> Grid {
    let ca =
        CertificateAuthority::new(DistinguishedName::user("cern.ch", "CERN CA"), 1, 0, 1_000_000);
    let sk = KeyPair::from_seed(2);
    let server_cred = CredentialChain::end_entity(
        ca.issue(DistinguishedName::host("cern.ch", "gdmp.cern.ch"), sk.public, 0, 900_000),
        sk,
    );
    let uk = KeyPair::from_seed(3);
    let user = CredentialChain::end_entity(
        ca.issue(DistinguishedName::user("cern.ch", "alice"), uk.public, 0, 900_000),
        uk,
    );
    // Clients authenticate with a session proxy, as grid-proxy-init would.
    let client_cred = user.delegate(4, 0, 43_200, 3).unwrap();
    Grid { ca, server_cred, client_cred }
}

fn sample(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| ((i * 31 + i / 7) % 251) as u8).collect::<Vec<_>>())
}

fn start_server(g: &Grid, files: &[(&str, Bytes)]) -> (GridFtpServer, MemStore) {
    let store = MemStore::with(files);
    let server = GridFtpServer::start(
        store.clone(),
        ServerConfig {
            credential: g.server_cred.clone(),
            ca_public: g.ca.public_key(),
            now: 100,
            block_size: 8 * 1024,
            require_auth: true,
        },
    )
    .expect("server starts");
    (server, store)
}

fn client(g: &Grid, server: &GridFtpServer, parallelism: u32) -> GridFtpClient {
    GridFtpClient::connect(
        server.addr(),
        ClientConfig {
            credential: g.client_cred.clone(),
            ca_public: g.ca.public_key(),
            now: 100,
            parallelism,
            buffer: 1024 * 1024,
            block_size: 8 * 1024,
            nonce: 0xfeed_f00d,
        },
    )
    .expect("client connects and authenticates")
}

#[test]
fn mutual_auth_identities() {
    let g = grid();
    let (server, _) = start_server(&g, &[]);
    let c = client(&g, &server, 1);
    assert!(c.server_identity.contains("gdmp.cern.ch"), "{}", c.server_identity);
    c.quit().unwrap();
}

#[test]
fn get_single_stream() {
    let g = grid();
    let data = sample(100_000);
    let (server, _) = start_server(&g, &[("run1.db", data.clone())]);
    let mut c = client(&g, &server, 1);
    let (got, report) = c.get("run1.db").unwrap();
    assert_eq!(got, data);
    assert_eq!(report.bytes, 100_000);
    assert_eq!(report.crc32, crc32(&data));
}

#[test]
fn get_parallel_streams() {
    let g = grid();
    let data = sample(1_000_000);
    let (server, _) = start_server(&g, &[("big.db", data.clone())]);
    for streams in [2u32, 4, 7] {
        let mut c = client(&g, &server, streams);
        let (got, report) = c.get("big.db").unwrap();
        assert_eq!(got, data, "{streams}-stream get corrupted data");
        assert_eq!(report.channels, streams);
    }
}

#[test]
fn get_missing_file_is_refused() {
    let g = grid();
    let (server, _) = start_server(&g, &[]);
    let mut c = client(&g, &server, 2);
    match c.get("ghost.db") {
        Err(ClientError::Refused(r)) => assert_eq!(r.code, 550),
        other => panic!("expected 550 refusal, got {other:?}"),
    }
}

#[test]
fn partial_get_and_manual_reassembly() {
    let g = grid();
    let data = sample(50_000);
    let (server, _) = start_server(&g, &[("f.db", data.clone())]);
    let mut c = client(&g, &server, 3);
    let first = c.get_partial("f.db", 0, 20_000).unwrap();
    let second = c.get_partial("f.db", 20_000, 30_000).unwrap();
    let mut whole = first.to_vec();
    whole.extend_from_slice(&second);
    assert_eq!(Bytes::from(whole), data);
}

#[test]
fn resume_fills_missing_ranges() {
    let g = grid();
    let data = sample(60_000);
    let (server, _) = start_server(&g, &[("f.db", data.clone())]);
    let mut c = client(&g, &server, 2);
    // Simulate an interrupted transfer: we only have the middle chunk.
    let mut partial = vec![0u8; 60_000];
    partial[10_000..30_000].copy_from_slice(&data[10_000..30_000]);
    let mut received = gdmp_gridftp::ByteRanges::new();
    received.insert(10_000, 30_000);
    let whole = c.resume("f.db", Bytes::from(partial), &received).unwrap();
    assert_eq!(whole, data);
}

#[test]
fn put_roundtrip() {
    let g = grid();
    let (server, store) = start_server(&g, &[]);
    let data = sample(300_000);
    let mut c = client(&g, &server, 3);
    c.put("upload.db", data.clone()).unwrap();
    assert_eq!(store.get("upload.db").unwrap(), data);
    // And we can read it back through the protocol.
    let (got, _) = c.get("upload.db").unwrap();
    assert_eq!(got, data);
}

#[test]
fn put_then_delete() {
    let g = grid();
    let (server, store) = start_server(&g, &[]);
    let mut c = client(&g, &server, 1);
    c.put("tmp.db", sample(1000)).unwrap();
    c.delete("tmp.db").unwrap();
    assert!(store.get("tmp.db").is_none());
    assert!(matches!(c.delete("tmp.db"), Err(ClientError::Refused(_))));
}

#[test]
fn remote_cksm_matches_local() {
    let g = grid();
    let data = sample(10_000);
    let (server, _) = start_server(&g, &[("f.db", data.clone())]);
    let mut c = client(&g, &server, 1);
    assert_eq!(c.cksm("f.db", 0, -1).unwrap(), crc32(&data));
    assert_eq!(c.cksm("f.db", 100, 50).unwrap(), crc32(&data[100..150]));
    assert_eq!(c.size("f.db").unwrap(), 10_000);
}

#[test]
fn unauthenticated_clients_rejected() {
    let g = grid();
    let (server, _) = start_server(&g, &[("f.db", sample(10))]);
    // A client whose credential was signed by a different CA must fail.
    let evil_ca =
        CertificateAuthority::new(DistinguishedName::user("evil.org", "Evil CA"), 99, 0, 1_000_000);
    let ek = KeyPair::from_seed(66);
    let evil_cred = CredentialChain::end_entity(
        evil_ca.issue(DistinguishedName::user("evil.org", "mallory"), ek.public, 0, 900_000),
        ek,
    );
    let result = GridFtpClient::connect(
        server.addr(),
        ClientConfig {
            credential: evil_cred,
            ca_public: g.ca.public_key(), // mallory even knows the right CA key
            now: 100,
            parallelism: 1,
            buffer: 64 * 1024,
            block_size: 8192,
            nonce: 1,
        },
    );
    assert!(matches!(result, Err(ClientError::Auth(_))), "foreign CA must be refused");
}

#[test]
fn expired_proxy_rejected() {
    let g = grid();
    let (server, _) = start_server(&g, &[]);
    let short_proxy = {
        // Re-derive the user's end-entity credential and make a proxy that
        // is already expired at server time (now = 100).
        let uk = KeyPair::from_seed(3);
        let user = CredentialChain::end_entity(
            g.ca.issue(DistinguishedName::user("cern.ch", "alice"), uk.public, 0, 900_000),
            uk,
        );
        user.delegate(4, 0, 50, 1).unwrap() // valid only to t=50; server is at 100
    };
    let result = GridFtpClient::connect(
        server.addr(),
        ClientConfig {
            credential: short_proxy,
            ca_public: g.ca.public_key(),
            now: 100,
            parallelism: 1,
            buffer: 64 * 1024,
            block_size: 8192,
            nonce: 1,
        },
    );
    assert!(matches!(result, Err(ClientError::Auth(_))));
}

#[test]
fn empty_file_transfers() {
    let g = grid();
    let (server, _) = start_server(&g, &[("empty.db", Bytes::new())]);
    let mut c = client(&g, &server, 2);
    let (got, _) = c.get("empty.db").unwrap();
    assert!(got.is_empty());
}

#[test]
fn concurrent_clients() {
    let g = grid();
    let data = sample(200_000);
    let (server, _) = start_server(&g, &[("shared.db", data.clone())]);
    let addr = server.addr();
    let mut handles = Vec::new();
    for i in 0..4 {
        let g2 = grid();
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = GridFtpClient::connect(
                addr,
                ClientConfig {
                    credential: g2.client_cred,
                    ca_public: g2.ca.public_key(),
                    now: 100,
                    parallelism: 2,
                    buffer: 256 * 1024,
                    block_size: 8192,
                    nonce: 1000 + i,
                },
            )
            .unwrap();
            let (got, _) = c.get("shared.db").unwrap();
            assert_eq!(got, data);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn striped_get_from_three_servers() {
    let g = grid();
    let data = sample(150_000);
    // Three independent stripe servers, each holding a full replica.
    let servers: Vec<_> = (0..3).map(|_| start_server(&g, &[("wide.db", data.clone())])).collect();
    let stripes: Vec<_> = servers
        .iter()
        .enumerate()
        .map(|(i, (srv, _))| {
            (
                srv.addr(),
                ClientConfig {
                    credential: g.client_cred.clone(),
                    ca_public: g.ca.public_key(),
                    now: 100,
                    parallelism: 2,
                    buffer: 256 * 1024,
                    block_size: 8 * 1024,
                    nonce: 500 + i as u64,
                },
            )
        })
        .collect();
    let got = gdmp_gridftp::client::striped_get(&stripes, "wide.db").unwrap();
    assert_eq!(got, data);
}

#[test]
fn striped_get_single_server_degenerates_to_partial_get() {
    let g = grid();
    let data = sample(10_000);
    let (server, _) = start_server(&g, &[("solo.db", data.clone())]);
    let stripes = vec![(
        server.addr(),
        ClientConfig {
            credential: g.client_cred.clone(),
            ca_public: g.ca.public_key(),
            now: 100,
            parallelism: 1,
            buffer: 64 * 1024,
            block_size: 4096,
            nonce: 9,
        },
    )];
    let got = gdmp_gridftp::client::striped_get(&stripes, "solo.db").unwrap();
    assert_eq!(got, data);
}

#[test]
fn third_party_server_to_server_copy() {
    let g = grid();
    let data = sample(400_000);
    let (src_server, _) = start_server(&g, &[("payload.db", data.clone())]);
    let (dst_server, dst_store) = start_server(&g, &[]);
    let mut src = client(&g, &src_server, 3);
    let mut dst = client(&g, &dst_server, 3);
    let moved =
        gdmp_gridftp::client::third_party_copy(&mut src, &mut dst, "payload.db", "payload.db", 3)
            .unwrap();
    assert_eq!(moved, 400_000);
    // The data flowed server→server; the destination store holds it.
    assert_eq!(dst_store.get("payload.db").unwrap(), data);
}

#[test]
fn third_party_missing_source_file() {
    let g = grid();
    let (src_server, _) = start_server(&g, &[]);
    let (dst_server, _) = start_server(&g, &[]);
    let mut src = client(&g, &src_server, 1);
    let mut dst = client(&g, &dst_server, 1);
    let err = gdmp_gridftp::client::third_party_copy(&mut src, &mut dst, "ghost.db", "ghost.db", 1)
        .unwrap_err();
    assert!(matches!(err, ClientError::Refused(_)));
}

/// The edges of the receive path over four channels: a range that ends at
/// end of file, an empty range, and a file smaller than one block (one
/// channel carries it, three carry only EOD). Bytes and CRC must match the
/// source.
#[test]
fn receive_edges_over_four_channels() {
    let g = grid();
    let data = sample(50_000);
    let small = sample(100);
    let (server, _) = start_server(&g, &[("f.db", data.clone()), ("small.db", small.clone())]);
    let mut c = client(&g, &server, 4);

    let tail = c.get_partial("f.db", 49_990, 10).unwrap();
    assert_eq!(tail, data.slice(49_990..));
    assert_eq!(crc32(&tail), c.cksm("f.db", 49_990, 10).unwrap());

    let empty = c.get_partial("f.db", 20_000, 0).unwrap();
    assert!(empty.is_empty());
    assert_eq!(crc32(&empty), crc32(&data[20_000..20_000]));

    let (got, report) = c.get("small.db").unwrap();
    assert_eq!(got, small);
    assert_eq!(report.bytes, 100);
    assert_eq!(report.channels, 4);
    assert_eq!(report.crc32, crc32(&small));
    c.quit().unwrap();
}
