//! Randomized (seeded, deterministic) tests for the checksum algebra and
//! the trace file formats.

use nprng::rngs::StdRng;
use nprng::{Rng, SeedableRng};

use nettrace::checksum::{checksum, ones_complement_sum, update, verify};
use nettrace::ip::Ipv4Header;
use nettrace::pcap::{PcapReader, PcapWriter};
use nettrace::tsh::{TshReader, TshWriter, SNAP_LEN};
use nettrace::{LinkType, Packet, Timestamp};

fn arb_bytes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen::<u8>()).collect()
}

fn arb_packet(rng: &mut StdRng) -> Packet {
    let sec = rng.gen::<u32>();
    let usec = rng.gen_range(0u32..1_000_000);
    let data = arb_bytes(rng, 0..256);
    Packet::from_l3(Timestamp::new(sec, usec), data)
}

fn arb_ipv4_packet(rng: &mut StdRng) -> Packet {
    let mut h = Ipv4Header {
        version: 4,
        ihl: 5,
        tos: 0,
        total_len: rng.gen_range(40u16..1500),
        ident: rng.gen::<u16>(),
        flags_frag: 0,
        ttl: rng.gen_range(2u16..256) as u8,
        protocol: rng.gen::<u8>(),
        header_checksum: 0,
        src: rng.gen::<u32>().into(),
        dst: rng.gen::<u32>().into(),
    };
    h.finalize();
    let mut data = vec![0u8; usize::from(h.total_len).min(96)];
    h.write(&mut data[..20]);
    Packet::from_l3(Timestamp::new(0, 0), data)
}

#[test]
fn checksum_over_data_with_itself_verifies() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0001);
    for _ in 0..500 {
        // Appending the checksum of even-length data makes it verify.
        let mut data = arb_bytes(&mut rng, 2..200);
        if !data.len().is_multiple_of(2) {
            data.push(0);
        }
        let sum = checksum(&data);
        data.extend_from_slice(&sum.to_be_bytes());
        assert!(verify(&data));
    }
}

#[test]
fn incremental_update_matches_full_recompute() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0002);
    for _ in 0..500 {
        let mut header: Vec<u8> = (0..20).map(|_| rng.gen::<u8>()).collect();
        let at = rng.gen_range(0usize..9) * 2;
        let new_word = rng.gen::<u16>();
        header[10] = 0;
        header[11] = 0;
        let old = checksum(&header);
        let old_word = u16::from_be_bytes([header[at], header[at + 1]]);
        header[at..at + 2].copy_from_slice(&new_word.to_be_bytes());
        let incremental = update(old, old_word, new_word);
        let full = checksum(&header);
        // Equal as ones-complement values (0x0000 == 0xffff).
        let a = ones_complement_sum(&incremental.to_be_bytes());
        let b = ones_complement_sum(&full.to_be_bytes());
        assert!(a == b || (a % 0xffff) == (b % 0xffff));
    }
}

#[test]
fn pcap_round_trips_arbitrary_packets() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0003);
    for _ in 0..60 {
        let count = rng.gen_range(0usize..20);
        let packets: Vec<Packet> = (0..count).map(|_| arb_packet(&mut rng)).collect();
        let mut file = Vec::new();
        let mut writer = PcapWriter::new(&mut file, LinkType::Raw, 65535).unwrap();
        for p in &packets {
            writer.write_packet(p).unwrap();
        }
        writer.into_inner().unwrap();
        let read: Vec<Packet> = PcapReader::new(&file[..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(read, packets);
    }
}

#[test]
fn pcap_reader_never_panics_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0004);
    for _ in 0..500 {
        let bytes = arb_bytes(&mut rng, 0..200);
        if let Ok(reader) = PcapReader::new(&bytes[..]) {
            for record in reader {
                if record.is_err() {
                    break;
                }
            }
        }
    }
}

#[test]
fn tsh_preserves_ip_headers() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0005);
    for _ in 0..300 {
        let packet = arb_ipv4_packet(&mut rng);
        let mut file = Vec::new();
        let mut writer = TshWriter::new(&mut file, 2);
        writer.write_packet(&packet).unwrap();
        writer.into_inner().unwrap();
        let read = TshReader::new(&file[..]).next_packet().unwrap().unwrap();
        assert_eq!(read.data.len(), SNAP_LEN);
        assert_eq!(&read.data[..20], &packet.data[..20]);
        let h = Ipv4Header::parse(read.l3()).unwrap();
        assert!(h.verify_checksum());
        assert_eq!(read.orig_len, u32::from(h.total_len));
    }
}

#[test]
fn ipv4_header_write_parse_round_trips() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0006);
    for _ in 0..300 {
        let packet = arb_ipv4_packet(&mut rng);
        let h = Ipv4Header::parse(packet.l3()).unwrap();
        let mut bytes = [0u8; 20];
        h.write(&mut bytes);
        assert_eq!(Ipv4Header::parse(&bytes).unwrap(), h);
        assert!(h.verify_checksum());
    }
}

#[test]
fn ipv4_parse_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0007);
    for _ in 0..500 {
        let bytes = arb_bytes(&mut rng, 0..64);
        let _ = Ipv4Header::parse(&bytes);
    }
}

#[test]
fn tsh_reader_never_panics_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0x4e54_0008);
    for _ in 0..500 {
        // Up to four whole 44-byte records plus a ragged tail.
        let bytes = arb_bytes(&mut rng, 0..200);
        let whole = bytes.len() / 44;
        let mut read = 0;
        for record in TshReader::new(&bytes[..]) {
            match record {
                Ok(packet) => {
                    assert_eq!(packet.data.len(), SNAP_LEN);
                    read += 1;
                }
                Err(_) => break,
            }
        }
        assert_eq!(read, whole, "every whole record reads");
    }
}
