//! The exporter wire protocol: self-certifying global category names,
//! delegation certificates, and serialized RPC messages.
//!
//! A category leaves its home machine under a *global name*: the hash of its
//! home exporter's public key plus a per-exporter identifier.  The name is
//! self-certifying — it simultaneously names the category and the only
//! exporter entitled to speak for it — so two machines that have never met
//! can still agree on what a label means, with no trusted naming authority
//! (the DStar design, applied to this reproduction's simulated network).
//!
//! Certificates are authenticated with a keyed hash in place of public-key
//! signatures (the container has no crypto dependency).  The construction
//! preserves exactly the checks that matter: only code holding the home
//! exporter's secret can mint a certificate, and the home exporter — the
//! only party that ever needs to honor one — can verify it.  Third-party
//! verification, which real DStar gets from Ed25519, is out of scope and
//! explicitly rejected.

use histar_label::{Label, Level};
use histar_store::codec::{DecodeError, Decoder, Encoder, Wire};

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A keyed hash over a sequence of words — the stand-in for a signature.
pub(crate) fn mac64(secret: u64, parts: &[u64]) -> u64 {
    let mut acc = splitmix(secret ^ 0x6d61_6336_3421); // "mac64!"
    for &p in parts {
        acc = splitmix(acc ^ p);
    }
    acc
}

/// A keyed hash over a byte string (used to authenticate whole messages).
pub(crate) fn mac_bytes(key: u64, bytes: &[u8]) -> u64 {
    let mut acc = splitmix(key ^ 0x6d61_6362); // "macb"
    acc = splitmix(acc ^ bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = splitmix(acc ^ u64::from_le_bytes(word));
    }
    acc
}

/// The 61-bit Mersenne prime `2^61 - 1` over which exporter key exchange
/// runs, and its generator.  A toy Diffie–Hellman — breakable offline, like
/// the category cipher — but structurally faithful: two exporters derive a
/// pairwise key from their own secret and the peer's public key, and only
/// they can authenticate traffic between them.
const DH_P: u64 = (1u64 << 61) - 1;
const DH_G: u64 = 3;

fn modpow(base: u64, mut exp: u64, modulus: u64) -> u64 {
    let mut acc: u128 = 1;
    let mut b: u128 = (base % modulus) as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % modulus as u128;
        }
        b = b * b % modulus as u128;
        exp >>= 1;
    }
    acc as u64
}

/// Maps a secret to a usable exponent: reduced into the group order, never
/// zero.  Injective over `1..p-1`, so distinct small secrets get distinct
/// public keys.
fn dh_exponent(secret: u64) -> u64 {
    let e = secret % (DH_P - 1);
    if e == 0 {
        1
    } else {
        e
    }
}

/// The public key derived from an exporter's secret.
pub fn public_from_secret(secret: u64) -> u64 {
    modpow(DH_G, dh_exponent(secret), DH_P)
}

/// The pairwise channel key shared by the holder of `my_secret` and the
/// holder of the secret behind `their_public` (commutative).
pub fn shared_key(my_secret: u64, their_public: u64) -> u64 {
    splitmix(modpow(their_public, dh_exponent(my_secret), DH_P) ^ 0x6368_616e) // "chan"
}

/// The hash of an exporter's public key: the machine-independent identity of
/// one exporter daemon.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExporterId(pub u64);

impl ExporterId {
    /// Derives the public identity from an exporter's secret key.  One-way:
    /// knowing the identity does not reveal the secret.
    pub fn from_secret(secret: u64) -> ExporterId {
        ExporterId::from_public(public_from_secret(secret))
    }

    /// The identity is the hash of the public key, so a name commits to the
    /// key material that authenticates the exporter's traffic.
    pub fn from_public(public: u64) -> ExporterId {
        ExporterId(splitmix(public ^ 0x7075_626b_6579)) // "pubkey"
    }
}

impl core::fmt::Debug for ExporterId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "exp:{:08x}", self.0)
    }
}

impl core::fmt::Display for ExporterId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "exp:{:08x}", self.0)
    }
}

/// The globally meaningful, self-certifying name of a category.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GlobalCategory {
    /// The exporter that owns (speaks for) the category.
    pub home: ExporterId,
    /// The category's identifier within its home exporter's namespace.
    pub id: u64,
}

impl core::fmt::Display for GlobalCategory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}/c{:x}", self.home, self.id)
    }
}

/// A label expressed entirely in global category names — what actually
/// crosses the wire.  Levels are copied verbatim from the local label;
/// translation never weakens (or strengthens) a level.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GlobalLabel {
    /// Default level for unmentioned categories.
    pub default: u8,
    /// `(category, level)` pairs, encoded with [`Level::encode`].
    pub entries: Vec<(GlobalCategory, u8)>,
}

impl GlobalLabel {
    /// The level of `cat` under this label, decoded.
    pub fn level(&self, cat: GlobalCategory) -> Option<Level> {
        for (c, bits) in &self.entries {
            if *c == cat {
                return Level::decode(*bits);
            }
        }
        Level::decode(self.default)
    }
}

/// The default level's bits, an entry count, then each entry's category
/// and level bits.
impl Wire<'_> for GlobalLabel {
    fn put(&self, e: &mut Encoder) {
        e.put_u8(self.default).put_u64(self.entries.len() as u64);
        for (c, lvl) in &self.entries {
            e.put_u64(c.home.0).put_u64(c.id).put_u8(*lvl);
        }
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<GlobalLabel, DecodeError> {
        let default = d.get_u8()?;
        let n = d.get_u64()?;
        let n = d.count(n, 17)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let home = ExporterId(d.get_u64()?);
            let id = d.get_u64()?;
            let lvl = d.get_u8()?;
            entries.push((GlobalCategory { home, id }, lvl));
        }
        Ok(GlobalLabel { default, entries })
    }
}

/// A delegation certificate: the home exporter of `category` states that
/// `grantee` may exercise ownership (`⋆`) of it remotely.
///
/// The tag is a keyed hash minted with the home exporter's secret; the home
/// exporter verifies it when a message claiming the privilege arrives.
/// Without a valid certificate the receiving exporter grants nothing, and
/// the receiving *kernel* then refuses the tunneled gate call — no flow is
/// exempt from the label lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DelegationCert {
    /// The delegated category.
    pub category: GlobalCategory,
    /// The exporter being delegated to.
    pub grantee: ExporterId,
    /// Keyed-hash authentication tag.
    pub tag: u64,
}

impl DelegationCert {
    /// Mints a certificate.  Only code holding the home exporter's secret
    /// can produce a tag that [`DelegationCert::verify`] accepts.
    pub fn issue(
        home_secret: u64,
        category: GlobalCategory,
        grantee: ExporterId,
    ) -> DelegationCert {
        DelegationCert {
            category,
            grantee,
            tag: mac64(home_secret, &[category.home.0, category.id, grantee.0]),
        }
    }

    /// Verifies the tag against the home exporter's secret, checking that
    /// the secret actually belongs to the category's home.
    pub fn verify(&self, home_secret: u64) -> bool {
        ExporterId::from_secret(home_secret) == self.category.home
            && self.tag
                == mac64(
                    home_secret,
                    &[self.category.home.0, self.category.id, self.grantee.0],
                )
    }
}

/// One exporter-to-exporter message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RpcMessage {
    /// A tunneled gate call.
    Call {
        /// Sequence number echoed by the reply.
        seq: u64,
        /// The calling exporter.  This is authenticated: every frame travels
        /// inside a [`seal`]ed envelope whose MAC is keyed by the pairwise
        /// channel key, and the receiver rejects a call whose inner sender
        /// disagrees with the authenticated envelope sender — a forged
        /// sender cannot produce a valid envelope.
        sender: ExporterId,
        /// Name of the remote service (gate) to invoke.
        service: String,
        /// The request payload's label, in global names.
        label: GlobalLabel,
        /// Categories the caller wants to exercise ownership of on the
        /// receiving node.
        claims: Vec<GlobalCategory>,
        /// Certificates backing the claims that need one.
        certs: Vec<DelegationCert>,
        /// The request payload.
        payload: Vec<u8>,
    },
    /// A successful reply.
    Reply {
        /// Sequence number of the call being answered.
        seq: u64,
        /// The reply payload's label, in global names (residual taint the
        /// service call acquired — it crosses the wire with the data).
        label: GlobalLabel,
        /// The reply payload.
        payload: Vec<u8>,
    },
    /// A failed call.
    Error {
        /// Sequence number of the call being answered.
        seq: u64,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail (e.g. the receiving kernel's error).
        message: String,
    },
}

/// Failure classes an exporter reports back to the caller; a code's wire
/// byte is its discriminant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ErrorCode {
    /// The receiving kernel's label check refused the tunneled call.
    LabelCheck,
    /// A delegation certificate was missing, malformed or forged.
    BadCertificate,
    /// No service with the requested name is registered.
    UnknownService,
    /// The reply could not be exported (its label names a category whose
    /// owner never authorized the exporter).
    NotExportable,
    /// Anything else (marshalling, resources).
    Internal,
}

/// Every code, at the index that is its wire byte (its discriminant).
const ERROR_CODES: [ErrorCode; 5] = [
    ErrorCode::LabelCheck,
    ErrorCode::BadCertificate,
    ErrorCode::UnknownService,
    ErrorCode::NotExportable,
    ErrorCode::Internal,
];

/// A tag byte, then the variant's fields.  The peer node writes it, so an
/// unknown tag or error code is [`DecodeError::BadValue`], a count is
/// checked against the bytes left, and bytes after the message are
/// refused.
impl Wire<'_> for RpcMessage {
    fn put(&self, e: &mut Encoder) {
        match self {
            RpcMessage::Call {
                seq,
                sender,
                service,
                label,
                claims,
                certs,
                payload,
            } => {
                e.put_u8(0).put_u64(*seq).put_u64(sender.0);
                e.put_str(service);
                label.put(e);
                e.put_u64(claims.len() as u64);
                for c in claims {
                    e.put_u64(c.home.0).put_u64(c.id);
                }
                e.put_u64(certs.len() as u64);
                for c in certs {
                    e.put_u64(c.category.home.0).put_u64(c.category.id);
                    e.put_u64(c.grantee.0).put_u64(c.tag);
                }
                e.put_bytes(payload);
            }
            RpcMessage::Reply {
                seq,
                label,
                payload,
            } => {
                e.put_u8(1).put_u64(*seq);
                label.put(e);
                e.put_bytes(payload);
            }
            RpcMessage::Error { seq, code, message } => {
                e.put_u8(2).put_u64(*seq).put_u8(*code as u8);
                e.put_str(message);
            }
        }
    }

    fn get(d: &mut Decoder<'_>, (): ()) -> Result<RpcMessage, DecodeError> {
        let msg = match d.get_u8()? {
            0 => {
                let seq = d.get_u64()?;
                let sender = ExporterId(d.get_u64()?);
                let service = d.get_str_slice()?.to_owned();
                let label = GlobalLabel::get(d, ())?;
                let nclaims = d.get_u64()?;
                let nclaims = d.count(nclaims, 16)?;
                let mut claims = Vec::with_capacity(nclaims);
                for _ in 0..nclaims {
                    let home = ExporterId(d.get_u64()?);
                    let id = d.get_u64()?;
                    claims.push(GlobalCategory { home, id });
                }
                let ncerts = d.get_u64()?;
                let ncerts = d.count(ncerts, 32)?;
                let mut certs = Vec::with_capacity(ncerts);
                for _ in 0..ncerts {
                    let home = ExporterId(d.get_u64()?);
                    let id = d.get_u64()?;
                    let grantee = ExporterId(d.get_u64()?);
                    let tag = d.get_u64()?;
                    certs.push(DelegationCert {
                        category: GlobalCategory { home, id },
                        grantee,
                        tag,
                    });
                }
                let payload = d.get_bytes()?;
                RpcMessage::Call {
                    seq,
                    sender,
                    service,
                    label,
                    claims,
                    certs,
                    payload,
                }
            }
            1 => RpcMessage::Reply {
                seq: d.get_u64()?,
                label: GlobalLabel::get(d, ())?,
                payload: d.get_bytes()?,
            },
            2 => RpcMessage::Error {
                seq: d.get_u64()?,
                code: *ERROR_CODES
                    .get(usize::from(d.get_u8()?))
                    .ok_or(DecodeError::BadValue)?,
                message: d.get_str_slice()?.to_owned(),
            },
            _ => return Err(DecodeError::BadValue),
        };
        Ok(msg)
    }
}

/// Wraps an encoded message in an authenticated envelope:
/// `[sender id][MAC(channel key, body)][body]`.  Only the two endpoints of
/// the channel can mint (or verify) the tag.
pub fn seal(channel_key: u64, sender: ExporterId, msg: &RpcMessage) -> Vec<u8> {
    let body = msg.encode();
    let mut e = Encoder::new();
    e.put_u64(sender.0);
    e.put_u64(mac_bytes(channel_key, &body));
    e.put_bytes(&body);
    e.finish()
}

/// Splits an envelope into its claimed sender, tag, and body — *without*
/// verifying anything (the receiver must look up the sender's channel key
/// first).  Complete verification is [`open`].
pub fn peel(frame: &[u8]) -> Result<(ExporterId, u64, &[u8]), DecodeError> {
    let mut d = Decoder::new(frame);
    let (sender, tag, body) = (ExporterId(d.get_u64()?), d.get_u64()?, d.get_slice()?);
    d.finish()?;
    Ok((sender, tag, body))
}

/// Verifies and decodes an envelope with the channel key the receiver holds
/// for the claimed sender.  Returns `None` if the tag does not verify.
pub fn open(channel_key: u64, tag: u64, body: &[u8]) -> Option<RpcMessage> {
    if mac_bytes(channel_key, body) != tag {
        return None;
    }
    RpcMessage::decode(body).ok()
}

/// Translates a local label to global names using a resolver from local
/// categories to global ones.  Fails (not exportable) with the resolver's
/// error if any non-default entry has no global name.
pub fn label_to_global<E>(
    label: &Label,
    mut resolve: impl FnMut(histar_label::Category) -> Result<GlobalCategory, E>,
) -> Result<GlobalLabel, E> {
    let mut out = GlobalLabel {
        default: label.default_level().encode(),
        entries: Vec::with_capacity(label.len()),
    };
    for (c, lvl) in label.entries() {
        out.entries.push((resolve(c)?, lvl.encode()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exporter_identity_is_one_way_and_stable() {
        let a = ExporterId::from_secret(1);
        let b = ExporterId::from_secret(1);
        let c = ExporterId::from_secret(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.0, 1, "the identity must not expose the secret");
    }

    #[test]
    fn certificates_verify_only_with_the_home_secret() {
        let secret = 0xdead_beef;
        let home = ExporterId::from_secret(secret);
        let grantee = ExporterId::from_secret(7);
        let cat = GlobalCategory { home, id: 3 };
        let cert = DelegationCert::issue(secret, cat, grantee);
        assert!(cert.verify(secret));
        // A different secret (an impostor claiming to be the home) fails.
        assert!(!cert.verify(0xfeed));
        // A tampered tag fails.
        let forged = DelegationCert {
            tag: cert.tag ^ 1,
            ..cert
        };
        assert!(!forged.verify(secret));
        // A cert for a different grantee has a different tag.
        let other = DelegationCert::issue(secret, cat, ExporterId::from_secret(8));
        assert_ne!(other.tag, cert.tag);
    }

    #[test]
    fn key_exchange_is_commutative_and_envelope_tags_bind_the_channel() {
        let (sa, sb, sc) = (11, 22, 33);
        let (pa, pb, pc) = (
            public_from_secret(sa),
            public_from_secret(sb),
            public_from_secret(sc),
        );
        // Distinct secrets — including adjacent even/odd pairs — get
        // distinct public keys.
        assert_ne!(pa, pb);
        assert_ne!(
            public_from_secret(0xe4b0_17e6),
            public_from_secret(0xe4b0_17e7)
        );
        // Both ends derive the same channel key; a third party derives a
        // different one.
        let kab = shared_key(sa, pb);
        let kba = shared_key(sb, pa);
        assert_eq!(kab, kba);
        assert_ne!(kab, shared_key(sa, pc));
        assert_ne!(kab, shared_key(sc, pa));
        assert_ne!(kab, shared_key(sc, pb));

        let a = ExporterId::from_public(pa);
        let msg = RpcMessage::Reply {
            seq: 7,
            label: GlobalLabel::default(),
            payload: b"hi".to_vec(),
        };
        let frame = seal(kab, a, &msg);
        let (sender, tag, body) = peel(&frame).unwrap();
        assert_eq!(sender, a);
        assert_eq!(open(kab, tag, body), Some(msg.clone()));
        // The wrong channel key — what a spoofer who is not one of the two
        // endpoints would have — fails verification.
        assert_eq!(open(shared_key(sc, pb), tag, body), None);
        // So does a tampered body.
        let mut mangled = body.to_vec();
        mangled[0] ^= 1;
        assert_eq!(open(kab, tag, &mangled), None);
    }

    #[test]
    fn messages_round_trip_through_the_codec() {
        let home = ExporterId::from_secret(5);
        let cat = GlobalCategory { home, id: 9 };
        let call = RpcMessage::Call {
            seq: 17,
            sender: ExporterId::from_secret(6),
            service: "auth.check".into(),
            label: GlobalLabel {
                default: Level::L1.encode(),
                entries: vec![(cat, Level::L3.encode())],
            },
            claims: vec![cat],
            certs: vec![DelegationCert::issue(5, cat, ExporterId::from_secret(6))],
            payload: b"bob\0hunter2".to_vec(),
        };
        assert_eq!(RpcMessage::decode(&call.encode()).unwrap(), call);

        let reply = RpcMessage::Reply {
            seq: 17,
            label: GlobalLabel::default(),
            payload: b"ok".to_vec(),
        };
        assert_eq!(RpcMessage::decode(&reply.encode()).unwrap(), reply);

        let err = RpcMessage::Error {
            seq: 18,
            code: ErrorCode::LabelCheck,
            message: "gate clearance does not admit the calling thread".into(),
        };
        assert_eq!(RpcMessage::decode(&err.encode()).unwrap(), err);
        for code in ERROR_CODES {
            let err = RpcMessage::Error {
                seq: 1,
                code,
                message: String::new(),
            };
            assert_eq!(RpcMessage::decode(&err.encode()), Ok(err));
        }

        assert!(RpcMessage::decode(b"\x09").is_err());
        assert!(RpcMessage::decode(&[]).is_err());
    }

    /// Every count the peer writes is checked against the bytes left
    /// before anything is read or reserved for it: a count the rest of
    /// the message cannot hold is refused at the count, as
    /// [`DecodeError::BadLength`], not partway through its items.
    #[test]
    fn counts_the_rest_cannot_hold_are_refused_at_the_count() {
        // One label entry (17 bytes) where the count claims two.
        let mut e = Encoder::new();
        e.put_u8(Level::L1.encode()).put_u64(2);
        e.put_u64(1).put_u64(2).put_u8(Level::L3.encode());
        assert_eq!(
            GlobalLabel::decode(&e.finish()),
            Err(DecodeError::BadLength)
        );
        // A call's claims (16 bytes each) and certificates (32 bytes
        // each): after each count, one claim, the certificate count, one
        // certificate and an empty payload follow — 64 bytes — so a claim
        // count of 5 and a certificate count of 2 overrun them.
        let call = |nclaims: u64, ncerts: u64| {
            let mut e = Encoder::new();
            e.put_u8(0).put_u64(1).put_u64(2).put_str("auth.check");
            GlobalLabel::default().put(&mut e);
            e.put_u64(nclaims).put_u64(3).put_u64(4);
            e.put_u64(ncerts)
                .put_u64(3)
                .put_u64(4)
                .put_u64(5)
                .put_u64(6);
            e.put_bytes(b"");
            RpcMessage::decode(&e.finish())
        };
        assert!(call(1, 1).is_ok());
        for (nclaims, ncerts) in [(5, 1), (1, 2), (u64::MAX, 1), (1, u64::MAX)] {
            assert_eq!(call(nclaims, ncerts), Err(DecodeError::BadLength));
        }
    }

    /// The peer writes the whole frame: bytes after a message, or after
    /// an envelope's body, are refused, not ignored.
    #[test]
    fn bytes_after_a_message_or_an_envelope_are_refused() {
        let msg = RpcMessage::Error {
            seq: 3,
            code: ErrorCode::Internal,
            message: "x".into(),
        };
        let mut body = msg.encode();
        assert_eq!(RpcMessage::decode(&body), Ok(msg.clone()));
        body.push(0);
        assert!(RpcMessage::decode(&body).is_err());
        let mut envelope = seal(7, ExporterId::from_secret(1), &msg);
        assert!(peel(&envelope).is_ok());
        envelope.push(0);
        assert!(peel(&envelope).is_err());
    }

    #[test]
    fn label_translation_preserves_levels_exactly() {
        use histar_label::Category;
        let home = ExporterId::from_secret(1);
        let l = Label::builder()
            .set(Category::from_raw(1), Level::L3)
            .set(Category::from_raw(2), Level::L0)
            .build();
        let g = label_to_global(&l, |c| Ok::<_, ()>(GlobalCategory { home, id: c.raw() })).unwrap();
        assert_eq!(g.level(GlobalCategory { home, id: 1 }), Some(Level::L3));
        assert_eq!(g.level(GlobalCategory { home, id: 2 }), Some(Level::L0));
        assert_eq!(g.level(GlobalCategory { home, id: 99 }), Some(Level::L1));
        // An unexportable entry poisons the whole label rather than being
        // silently dropped — dropping taint would be laundering.
        assert!(label_to_global(&l, |c| (c.raw() == 1)
            .then_some(GlobalCategory { home, id: 1 })
            .ok_or(()))
        .is_err());
    }
}
