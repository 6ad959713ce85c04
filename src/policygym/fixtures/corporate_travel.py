"""Bundled corporate business travel environment.

A B2B travel desk governed by expense policy and approval workflow, with the
rules hard-compiled as triggers: booking quotas, cabin-class permissions, a
manager-approval cost matrix with waivers, refund-calculation validation and
irreversible lifecycle states. Ships with an origin state seeded at decision
boundaries, a scripted oracle episode that reaches the bundled target
snapshot, and canned generator outputs for the synthesis pipeline stub.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..executor import EnvHandle, ToolCall, open_environment_at
from ..packages import (
    READ_ONLY,
    READ_WRITE,
    EnvironmentBundle,
    RolloutLimits,
    TaskPackage,
    save_package,
)
from ..snapshots import Snapshot
from ..synthesis import (
    StubGenerationPort,
    _explore_on,
    apply_seed_proposals,
    assemble_package,
    build_redaction_list,
    project_user_view,
)
from ..verify import DiffConfig

FIXTURE_NAME = "corporate-travel"
FIXTURE_DOMAIN = "corporate business travel portal"

SCHEMA_SQL = """\
-- L0_REFERENCE Table: flight_classes
CREATE TABLE flight_classes (
    id TEXT PRIMARY KEY,
    description TEXT NOT NULL
);

-- L0_REFERENCE Table: preferred_vendors
CREATE TABLE preferred_vendors (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    vendor_type TEXT NOT NULL CHECK(vendor_type IN ('PREFERRED', 'STANDARD'))
);

-- L0_REFERENCE Table: travel_policies
CREATE TABLE travel_policies (
    id TEXT PRIMARY KEY,
    company_id TEXT NOT NULL,
    user_level TEXT NOT NULL CHECK(user_level IN ('STAFF', 'MANAGER', 'DIRECTOR', 'VP')),
    max_flight_cost_no_approval INTEGER NOT NULL,
    allowed_hotel_vendor_type TEXT NOT NULL CHECK(allowed_hotel_vendor_type IN ('PREFERRED', 'ANY')),
    UNIQUE(company_id, user_level)
);

-- L1_ENTITY Table: companies
CREATE TABLE companies (
    id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    active INTEGER DEFAULT 1 CHECK(active IN (0,1))
);

-- L1_ENTITY Table: users
CREATE TABLE users (
    id TEXT PRIMARY KEY,
    company_id TEXT NOT NULL REFERENCES companies(id),
    user_level TEXT NOT NULL CHECK(user_level IN ('STAFF', 'MANAGER', 'DIRECTOR', 'VP')),
    active INTEGER DEFAULT 1 CHECK(active IN (0,1))
);

-- L2_TRANSACTION Table: travel_requests
CREATE TABLE travel_requests (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    user_id TEXT NOT NULL REFERENCES users(id),
    trip_purpose TEXT NOT NULL,
    status TEXT NOT NULL DEFAULT 'DRAFT' CHECK(status IN ('DRAFT', 'SUBMITTED', 'APPROVED', 'CANCELLED')),
    current_step INTEGER NOT NULL,
    flight_booking_count INTEGER DEFAULT 0 CHECK(flight_booking_count >= 0 AND flight_booking_count <= 3),
    hotel_booking_count INTEGER DEFAULT 0 CHECK(hotel_booking_count >= 0 AND hotel_booking_count <= 2)
);

-- L2_TRANSACTION Table: flight_bookings
CREATE TABLE flight_bookings (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    travel_request_id INTEGER NOT NULL REFERENCES travel_requests(id),
    flight_code TEXT NOT NULL,
    cost INTEGER NOT NULL,
    class TEXT NOT NULL REFERENCES flight_classes(id),
    departure_step INTEGER NOT NULL,
    booking_step INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'PENDING' CHECK(status IN ('PENDING', 'APPROVED', 'TICKETED', 'CANCELLED')),
    approval_status TEXT NOT NULL DEFAULT 'NOT_REQUIRED' CHECK(approval_status IN ('NOT_REQUIRED', 'PENDING', 'APPROVED', 'DENIED')),
    policy_violation_flag INTEGER DEFAULT 0 CHECK(policy_violation_flag IN (0,1)),
    cancellation_step INTEGER,
    refund_amount INTEGER
);

-- L2_TRANSACTION Table: hotel_bookings
CREATE TABLE hotel_bookings (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    travel_request_id INTEGER NOT NULL REFERENCES travel_requests(id),
    hotel_vendor_id TEXT NOT NULL REFERENCES preferred_vendors(id),
    cost INTEGER NOT NULL,
    booking_step INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'PENDING' CHECK(status IN ('PENDING', 'CONFIRMED', 'CANCELLED')),
    reimbursable INTEGER DEFAULT 1 CHECK(reimbursable IN (0,1)),
    cancellation_step INTEGER,
    refund_amount INTEGER
);

-- L2_TRANSACTION Table: approvals
CREATE TABLE approvals (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    flight_booking_id INTEGER NOT NULL REFERENCES flight_bookings(id),
    approver_id TEXT REFERENCES users(id),
    status TEXT NOT NULL CHECK(status IN ('PENDING', 'APPROVED', 'DENIED')),
    step INTEGER NOT NULL
);
"""

TRIGGERS_SQL = """\
-- Trigger: validate_travel_request_insert
CREATE TRIGGER validate_travel_request_insert
BEFORE INSERT ON travel_requests
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN NOT EXISTS (SELECT 1 FROM users WHERE id = NEW.user_id AND active = 1)
        THEN RAISE(ABORT, '[PREREQ_FAIL] User does not exist or is inactive')
        WHEN NOT EXISTS (
            SELECT 1 FROM users u JOIN companies c ON u.company_id = c.id
            WHERE u.id = NEW.user_id AND c.active = 1
        ) THEN RAISE(ABORT, '[PREREQ_FAIL] User''s company is inactive')
        WHEN NEW.trip_purpose IS NULL OR NEW.trip_purpose = ''
        THEN RAISE(ABORT, '[POLICY_VIOLATION] Trip purpose is mandatory')
        WHEN NEW.current_step IS NULL
        THEN RAISE(ABORT, '[REQUIRED_FIELD] current_step must be provided')
        WHEN NEW.status IS NULL THEN RAISE(ABORT, '[SYSTEM_ERROR] Status must be provided')
        WHEN NEW.status != 'DRAFT' THEN RAISE(ABORT, '[SYSTEM_ERROR] New travel requests must start as DRAFT')
    END;
END;

-- Trigger: validate_travel_request_update
CREATE TRIGGER validate_travel_request_update
BEFORE UPDATE ON travel_requests
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN OLD.status = 'CANCELLED' AND NEW.status != 'CANCELLED'
        THEN RAISE(ABORT, '[IMMUTABLE] CANCELLED travel requests cannot be reactivated')
        WHEN NEW.user_id != OLD.user_id
        THEN RAISE(ABORT, '[IMMUTABLE] Travel request owner cannot be changed')
        WHEN NEW.trip_purpose IS NULL OR NEW.trip_purpose = ''
        THEN RAISE(ABORT, '[POLICY_VIOLATION] Trip purpose is mandatory')
    END;
END;

-- Trigger: enforce_flight_booking_quota
CREATE TRIGGER enforce_flight_booking_quota
BEFORE INSERT ON flight_bookings
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN (SELECT flight_booking_count FROM travel_requests WHERE id = NEW.travel_request_id) >= 3
        THEN RAISE(ABORT, '[QUOTA_EXCEEDED] Maximum 3 flight bookings per travel request')
    END;
END;

-- Trigger: validate_flight_booking_insert
CREATE TRIGGER validate_flight_booking_insert
BEFORE INSERT ON flight_bookings
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN NOT EXISTS (
            SELECT 1 FROM travel_requests
            WHERE id = NEW.travel_request_id AND status IN ('DRAFT', 'APPROVED')
        ) THEN RAISE(ABORT, '[PREREQ_FAIL] Travel request must be DRAFT or APPROVED')
        WHEN NEW.departure_step IS NULL THEN RAISE(ABORT, '[REQUIRED_FIELD] departure_step must be provided')
        WHEN NEW.booking_step IS NULL THEN RAISE(ABORT, '[REQUIRED_FIELD] booking_step must be provided')
        WHEN NEW.policy_violation_flag != 0
        THEN RAISE(ABORT, '[SYSTEM_CONTROL] policy_violation_flag must be 0, system will calculate')
        WHEN NEW.status != 'PENDING'
        THEN RAISE(ABORT, '[SYSTEM_ERROR] New flight bookings must start as PENDING')
    END;

    SELECT CASE
        WHEN (
            SELECT u.user_level FROM travel_requests tr
            JOIN users u ON tr.user_id = u.id
            WHERE tr.id = NEW.travel_request_id
        ) NOT IN ('DIRECTOR', 'VP') AND NEW.class != 'ECONOMY'
        THEN RAISE(ABORT, '[POLICY_VIOLATION] Only DIRECTOR/VP level can book non-ECONOMY class')
    END;

    SELECT CASE
        WHEN (
            NEW.cost > (
                SELECT tp.max_flight_cost_no_approval
                FROM travel_requests tr
                JOIN users u ON tr.user_id = u.id
                JOIN travel_policies tp ON u.company_id = tp.company_id AND u.user_level = tp.user_level
                WHERE tr.id = NEW.travel_request_id
            )
            AND NOT (
                (SELECT u.user_level FROM travel_requests tr JOIN users u ON tr.user_id = u.id WHERE tr.id = NEW.travel_request_id)
                IN ('DIRECTOR', 'VP') AND NEW.cost < 500
            )
            AND NOT (NEW.departure_step - NEW.booking_step < 3)
            AND NEW.approval_status != 'PENDING'
        )
        THEN RAISE(ABORT, '[POLICY_VIOLATION] Flight requires manager approval. Set approval_status = PENDING')

        WHEN NOT (
            NEW.cost > (
                SELECT tp.max_flight_cost_no_approval
                FROM travel_requests tr
                JOIN users u ON tr.user_id = u.id
                JOIN travel_policies tp ON u.company_id = tp.company_id AND u.user_level = tp.user_level
                WHERE tr.id = NEW.travel_request_id
            )
            AND NOT (
                (SELECT u.user_level FROM travel_requests tr JOIN users u ON tr.user_id = u.id WHERE tr.id = NEW.travel_request_id)
                IN ('DIRECTOR', 'VP') AND NEW.cost < 500
            )
            AND NOT (NEW.departure_step - NEW.booking_step < 3)
        )
        AND NEW.approval_status = 'PENDING'
        THEN RAISE(ABORT, '[LOGIC_ERROR] Approval not required for this flight. Set approval_status = NOT_REQUIRED')
    END;
END;

-- Trigger: process_flight_booking_after_insert
CREATE TRIGGER process_flight_booking_after_insert
AFTER INSERT ON flight_bookings
FOR EACH ROW
BEGIN
    UPDATE flight_bookings
    SET policy_violation_flag = CASE WHEN (NEW.departure_step - NEW.booking_step < 3) THEN 1 ELSE 0 END
    WHERE id = NEW.id;

    INSERT INTO approvals (flight_booking_id, status, step)
    SELECT NEW.id, 'PENDING', NEW.booking_step
    WHERE EXISTS (
        SELECT 1
        FROM travel_requests tr
        JOIN users u ON tr.user_id = u.id
        JOIN travel_policies tp ON u.company_id = tp.company_id AND u.user_level = tp.user_level
        WHERE tr.id = NEW.travel_request_id
        AND NEW.cost > tp.max_flight_cost_no_approval
        AND NOT (u.user_level IN ('DIRECTOR', 'VP') AND NEW.cost < 500)
        AND NOT (NEW.departure_step - NEW.booking_step < 3)
    );

    UPDATE travel_requests
    SET flight_booking_count = (
        SELECT COUNT(*) FROM flight_bookings
        WHERE travel_request_id = NEW.travel_request_id AND status != 'CANCELLED'
    )
    WHERE id = NEW.travel_request_id;
END;

-- Trigger: enforce_hotel_booking_quota
CREATE TRIGGER enforce_hotel_booking_quota
BEFORE INSERT ON hotel_bookings
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN (SELECT hotel_booking_count FROM travel_requests WHERE id = NEW.travel_request_id) >= 2
        THEN RAISE(ABORT, '[QUOTA_EXCEEDED] Maximum 2 hotel bookings per travel request')
    END;
END;

-- Trigger: validate_hotel_booking_insert
CREATE TRIGGER validate_hotel_booking_insert
BEFORE INSERT ON hotel_bookings
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN NOT EXISTS (
            SELECT 1 FROM travel_requests
            WHERE id = NEW.travel_request_id AND status IN ('DRAFT', 'APPROVED')
        ) THEN RAISE(ABORT, '[PREREQ_FAIL] Travel request must be DRAFT or APPROVED')
        WHEN NOT EXISTS (SELECT 1 FROM preferred_vendors WHERE id = NEW.hotel_vendor_id)
        THEN RAISE(ABORT, '[POLICY_VIOLATION] Hotel must be from preferred vendors list')
        WHEN NEW.booking_step IS NULL
        THEN RAISE(ABORT, '[REQUIRED_FIELD] booking_step must be provided')
        WHEN NEW.reimbursable != 1
        THEN RAISE(ABORT, '[SYSTEM_CONTROL] reimbursable must be 1, system will set based on vendor type')
        WHEN NEW.status != 'PENDING'
        THEN RAISE(ABORT, '[SYSTEM_ERROR] New hotel bookings must start as PENDING')
    END;

    SELECT CASE
        WHEN (
            SELECT tp.allowed_hotel_vendor_type
            FROM travel_requests tr
            JOIN users u ON tr.user_id = u.id
            JOIN travel_policies tp ON u.company_id = tp.company_id AND u.user_level = tp.user_level
            WHERE tr.id = NEW.travel_request_id
        ) != 'ANY'
        AND (
            SELECT tp.allowed_hotel_vendor_type
            FROM travel_requests tr
            JOIN users u ON tr.user_id = u.id
            JOIN travel_policies tp ON u.company_id = tp.company_id AND u.user_level = tp.user_level
            WHERE tr.id = NEW.travel_request_id
        ) != (
            SELECT pv.vendor_type FROM preferred_vendors pv WHERE pv.id = NEW.hotel_vendor_id
        )
        THEN RAISE(ABORT, '[POLICY_VIOLATION] Hotel vendor type does not match policy requirement')
    END;
END;

-- Trigger: process_hotel_booking_after_insert
CREATE TRIGGER process_hotel_booking_after_insert
AFTER INSERT ON hotel_bookings
FOR EACH ROW
BEGIN
    UPDATE hotel_bookings
    SET reimbursable = CASE
        WHEN (SELECT vendor_type FROM preferred_vendors WHERE id = NEW.hotel_vendor_id) = 'PREFERRED'
        THEN 1 ELSE 0
    END
    WHERE id = NEW.id;

    UPDATE travel_requests
    SET hotel_booking_count = (
        SELECT COUNT(*) FROM hotel_bookings
        WHERE travel_request_id = NEW.travel_request_id AND status != 'CANCELLED'
    )
    WHERE id = NEW.travel_request_id;
END;

-- Trigger: validate_flight_cancellation
CREATE TRIGGER validate_flight_cancellation
BEFORE UPDATE OF status ON flight_bookings
FOR EACH ROW
WHEN NEW.status = 'CANCELLED' AND OLD.status != 'CANCELLED'
BEGIN
    SELECT CASE
        WHEN OLD.status = 'TICKETED'
        THEN RAISE(ABORT, '[IRREVERSIBLE] TICKETED flights cannot be cancelled')
        WHEN NEW.cancellation_step IS NULL
        THEN RAISE(ABORT, '[PROVENANCE_REQUIRED] Cancellation step must be provided')
        WHEN NEW.refund_amount IS NULL
        THEN RAISE(ABORT, '[CALCULATION_REQUIRED] Refund amount must be calculated')
        WHEN NEW.cancellation_step - OLD.booking_step <= 2 AND NEW.refund_amount != OLD.cost
        THEN RAISE(ABORT, '[CALCULATION_ERROR] Flight cancellation within 2 steps of booking gets full refund')
        WHEN NEW.cancellation_step - OLD.booking_step > 2 AND NEW.refund_amount != OLD.cost / 2
        THEN RAISE(ABORT, '[CALCULATION_ERROR] Late flight cancellation (>2 steps from booking) gets 50% refund')
    END;
END;

-- Trigger: validate_hotel_cancellation
CREATE TRIGGER validate_hotel_cancellation
BEFORE UPDATE OF status ON hotel_bookings
FOR EACH ROW
WHEN NEW.status = 'CANCELLED' AND OLD.status != 'CANCELLED'
BEGIN
    SELECT CASE
        WHEN OLD.status = 'CONFIRMED'
        THEN RAISE(ABORT, '[IRREVERSIBLE] CONFIRMED hotels cannot be cancelled')
        WHEN NEW.cancellation_step IS NULL
        THEN RAISE(ABORT, '[PROVENANCE_REQUIRED] Cancellation step must be provided')
        WHEN NEW.refund_amount IS NULL
        THEN RAISE(ABORT, '[CALCULATION_REQUIRED] Refund amount must be calculated')
        WHEN NEW.cancellation_step - OLD.booking_step <= 2 AND NEW.refund_amount != OLD.cost
        THEN RAISE(ABORT, '[CALCULATION_ERROR] Hotel cancellation within 2 steps of booking gets full refund')
        WHEN NEW.cancellation_step - OLD.booking_step > 2 AND NEW.refund_amount != OLD.cost / 2
        THEN RAISE(ABORT, '[CALCULATION_ERROR] Late hotel cancellation (>2 steps from booking) gets 50% refund')
    END;
END;

-- Trigger: recalc_flight_quota_after_status_change
CREATE TRIGGER recalc_flight_quota_after_status_change
AFTER UPDATE OF status ON flight_bookings
FOR EACH ROW
WHEN NEW.status != OLD.status
BEGIN
    UPDATE travel_requests
    SET flight_booking_count = (
        SELECT COUNT(*) FROM flight_bookings
        WHERE travel_request_id = OLD.travel_request_id AND status != 'CANCELLED'
    )
    WHERE id = OLD.travel_request_id;
END;

-- Trigger: recalc_hotel_quota_after_status_change
CREATE TRIGGER recalc_hotel_quota_after_status_change
AFTER UPDATE OF status ON hotel_bookings
FOR EACH ROW
WHEN NEW.status != OLD.status
BEGIN
    UPDATE travel_requests
    SET hotel_booking_count = (
        SELECT COUNT(*) FROM hotel_bookings
        WHERE travel_request_id = OLD.travel_request_id AND status != 'CANCELLED'
    )
    WHERE id = OLD.travel_request_id;
END;

-- Trigger: validate_approval_update
CREATE TRIGGER validate_approval_update
BEFORE UPDATE ON approvals
FOR EACH ROW
BEGIN
    SELECT CASE
        WHEN OLD.status != 'PENDING'
        THEN RAISE(ABORT, '[IRREVERSIBLE] Can only update PENDING approvals')
        WHEN OLD.flight_booking_id != NEW.flight_booking_id
        THEN RAISE(ABORT, '[IMMUTABLE] Cannot change flight_booking_id')
        WHEN OLD.step != NEW.step
        THEN RAISE(ABORT, '[IMMUTABLE] Cannot change approval step')
        WHEN NEW.approver_id IS NOT NULL AND NOT EXISTS (
            SELECT 1 FROM users WHERE id = NEW.approver_id AND active = 1
        ) THEN RAISE(ABORT, '[PREREQ_FAIL] Approver does not exist or is inactive')
        WHEN NEW.approver_id IS NOT NULL AND (
            SELECT user_level FROM users WHERE id = NEW.approver_id
        ) NOT IN ('MANAGER', 'DIRECTOR', 'VP')
        THEN RAISE(ABORT, '[AUTHORITY_ERROR] Approver must be MANAGER level or higher')
        WHEN NEW.approver_id IS NOT NULL AND EXISTS (
            SELECT 1 FROM flight_bookings fb
            JOIN travel_requests tr ON fb.travel_request_id = tr.id
            WHERE fb.id = NEW.flight_booking_id AND tr.user_id = NEW.approver_id
        ) THEN RAISE(ABORT, '[CONFLICT_OF_INTEREST] Approver cannot approve their own request')
    END;
END;

-- Trigger: process_approval_after_update
CREATE TRIGGER process_approval_after_update
AFTER UPDATE ON approvals
FOR EACH ROW
WHEN NEW.status != OLD.status
BEGIN
    UPDATE flight_bookings
    SET approval_status = NEW.status
    WHERE id = NEW.flight_booking_id;

    UPDATE flight_bookings
    SET status = 'TICKETED'
    WHERE id = NEW.flight_booking_id
    AND NEW.status = 'APPROVED'
    AND status = 'PENDING'
    AND policy_violation_flag = 0;
END;

-- Trigger: prevent_flight_modification_after_final
CREATE TRIGGER prevent_flight_modification_after_final
BEFORE UPDATE ON flight_bookings
FOR EACH ROW
WHEN OLD.status IN ('TICKETED', 'CANCELLED')
BEGIN
    SELECT CASE
        WHEN OLD.status = 'TICKETED' AND NEW.status = 'CANCELLED'
        THEN RAISE(ABORT, '[IRREVERSIBLE] TICKETED flights cannot be cancelled')
        WHEN OLD.status = 'TICKETED' AND NEW.status != 'TICKETED'
        THEN RAISE(ABORT, '[IMMUTABLE] TICKETED bookings cannot be modified')
        WHEN OLD.status = 'CANCELLED' AND NEW.status != 'CANCELLED'
        THEN RAISE(ABORT, '[IMMUTABLE] CANCELLED bookings cannot be reactivated')
        WHEN OLD.cost != NEW.cost
        THEN RAISE(ABORT, '[IMMUTABLE] Cost cannot be changed after creation')
        WHEN OLD.departure_step != NEW.departure_step
        THEN RAISE(ABORT, '[IMMUTABLE] Departure step cannot be changed after creation')
        WHEN OLD.booking_step != NEW.booking_step
        THEN RAISE(ABORT, '[IMMUTABLE] Booking step cannot be changed after creation')
    END;
END;

-- Trigger: prevent_hotel_modification_after_final
CREATE TRIGGER prevent_hotel_modification_after_final
BEFORE UPDATE ON hotel_bookings
FOR EACH ROW
WHEN OLD.status IN ('CONFIRMED', 'CANCELLED')
BEGIN
    SELECT CASE
        WHEN OLD.status = 'CONFIRMED' AND NEW.status = 'CANCELLED'
        THEN RAISE(ABORT, '[IRREVERSIBLE] CONFIRMED hotels cannot be cancelled')
        WHEN OLD.status = 'CONFIRMED' AND NEW.status != 'CONFIRMED'
        THEN RAISE(ABORT, '[IMMUTABLE] CONFIRMED hotels cannot be modified')
        WHEN OLD.status = 'CANCELLED' AND NEW.status != 'CANCELLED'
        THEN RAISE(ABORT, '[IMMUTABLE] CANCELLED hotels cannot be reactivated')
        WHEN OLD.cost != NEW.cost
        THEN RAISE(ABORT, '[IMMUTABLE] Cost cannot be changed after creation')
        WHEN OLD.booking_step != NEW.booking_step
        THEN RAISE(ABORT, '[IMMUTABLE] Booking step cannot be changed after creation')
    END;
END;
"""

POLICY_MD = """\
# Corporate Business Travel Agent Policy

## Section 0: Data Governance & Authority

You operate a strictly governed corporate travel desk. Foundational laws:

1. **READ-ONLY tables** (you cannot modify these directly):
   - `travel_policies`, `preferred_vendors`, `flight_classes` are system
     catalogs. SELECT only.
   - `companies` and `users` are profile tables. You cannot activate,
     deactivate or edit them; profile changes happen through an external
     administrative process.
2. **WRITEABLE tables** (INSERT and UPDATE):
   - `travel_requests`, `flight_bookings`, `hotel_bookings`, `approvals`
     are your workspace.
3. **Universal no-delete rule**: the SQL DELETE command is forbidden
   everywhere. To retire a record use its lifecycle status:
   - travel requests and bookings: set `status='CANCELLED'`;
   - approvals: set `status='DENIED'`;
   - users/companies: set `active=0` (not directly available to you).

## Section 1: Persona & Mission

You are a professional, policy-aware corporate travel specialist. You help
employees create and manage business travel in full compliance with their
company's rules, obtaining every required approval along the way.

## Section 2: Conversation Rules

- **Authentication**: confirm the requesting user's id and that both the
  user and their company are active before any state change.
- **Confirmation loop**: before every state-changing action, summarize the
  key parameters (cost, steps, approval need) and get an explicit yes.
- **Information boundaries**: never invent policy thresholds, vendors or
  profile data; query the catalog tables instead.
- **Single-tasking**: one tool call at a time, processed sequentially.
- **Escalation**: if a user contests a system-imposed restriction or you
  suspect a data error, offer to transfer to a human travel administrator.

## Section 3: Operating Procedures

### Create a travel request
- The requesting user must exist and be active, and their company must be
  active.
- `trip_purpose` is mandatory and non-empty; `current_step` (the simulation
  timestamp) must be provided.
- Insert into `travel_requests` with `user_id`, `trip_purpose`,
  `current_step`. The system starts the request in DRAFT status with both
  booking counters at zero.

### Book a flight
- The parent travel request must be in DRAFT or APPROVED status.
- Quota: at most 3 active (non-CANCELLED) flight bookings per request.
- Provide `booking_step` and `departure_step`. Departures less than 3 steps
  after booking are emergency bookings; the system records
  `policy_violation_flag=1` for them automatically.
- Cabin eligibility: only DIRECTOR or VP users may book a class other than
  ECONOMY.
- Approval matrix: look up the user's `travel_policies` row for
  `max_flight_cost_no_approval`. Manager approval IS required when the cost
  exceeds that threshold, unless a waiver applies:
  - Waiver A: the user is DIRECTOR or VP and the cost is under 500.
  - Waiver B: the booking is an emergency (flagged by the system).
- You must set `approval_status` yourself: 'PENDING' when approval is
  required, 'NOT_REQUIRED' otherwise. The engine rejects a wrong choice.
- On success the system sets the initial PENDING status, computes the
  violation flag, creates the PENDING `approvals` record when approval is
  required, and refreshes the request's `flight_booking_count`.

### Book a hotel
- The parent travel request must be in DRAFT or APPROVED status.
- Quota: at most 2 active hotel bookings per request.
- The vendor must come from the `preferred_vendors` catalog and its
  `vendor_type` must satisfy the policy's `allowed_hotel_vendor_type`
  ('ANY' accepts every vendor, otherwise the types must match).
- On success the system sets PENDING status, computes `reimbursable`
  (1 only for PREFERRED vendors) and refreshes `hotel_booking_count`.

### Cancel a flight booking
- TICKETED flights are irreversible and cannot be cancelled; already
  CANCELLED bookings stay cancelled.
- Provide `cancellation_step` and a `refund_amount` you computed:
  - within 2 steps of `booking_step`: full refund (the original cost);
  - more than 2 steps after booking: 50% of the cost.
- The engine validates your arithmetic and refreshes the flight counter.

### Cancel a hotel booking
- CONFIRMED hotels are irreversible. The same 2-step refund rule applies.

### Process a manager approval
- Only PENDING `approvals` rows can be decided.
- The approver must be an active user of MANAGER level or higher and must
  not be the owner of the travel request (conflict of interest).
- Update the approval to APPROVED or DENIED with the `approver_id`. The
  system mirrors the decision onto the flight's `approval_status` and, on
  approval of a clean (non-emergency) PENDING flight, tickets it
  automatically.

## Section 4: Critical System Enforcement

1. Never DELETE; lifecycle states only.
2. Users and companies change only through external administration.
3. TICKETED flights and CONFIRMED hotels are final; CANCELLED records
   cannot be reactivated.
4. At most 3 active flights and 2 active hotels per travel request.
5. Never set `policy_violation_flag` or `reimbursable` manually; the system
   computes both on insert.
6. Cancellations must carry `cancellation_step` and a correctly calculated
   `refund_amount`; the engine checks the math.
"""

PERMISSIONS = {
    "travel_policies": READ_ONLY,
    "preferred_vendors": READ_ONLY,
    "flight_classes": READ_ONLY,
    "companies": READ_ONLY,
    "users": READ_ONLY,
    "travel_requests": READ_WRITE,
    "flight_bookings": READ_WRITE,
    "hotel_bookings": READ_WRITE,
    "approvals": READ_WRITE,
}

ERROR_HINTS = {
    "PREREQ_FAIL": "Verify the referenced records exist and are active before retrying.",
    "POLICY_VIOLATION": "Re-read the relevant policy section and adjust the request.",
    "REQUIRED_FIELD": "Supply every mandatory field for this operation.",
    "SYSTEM_ERROR": "Let the system assign lifecycle fields instead of overriding them.",
    "SYSTEM_CONTROL": "Omit system-calculated columns; the engine sets them.",
    "QUOTA_EXCEEDED": "Cancel an existing booking or use a different travel request.",
    "LOGIC_ERROR": "Recompute the approval requirement from the policy matrix.",
    "IRREVERSIBLE": "Finalized records cannot change state; escalate if contested.",
    "CALCULATION_ERROR": "Recalculate the refund using the 2-step rule.",
    "CALCULATION_REQUIRED": "Provide the refund amount computed per policy.",
    "PROVENANCE_REQUIRED": "Provide the cancellation step.",
    "IMMUTABLE": "This field or record cannot be modified.",
    "AUTHORITY_ERROR": "Use an approver with MANAGER level or higher.",
    "CONFLICT_OF_INTEREST": "Choose an approver other than the requester.",
    "UNCLASSIFIED": "Unexpected engine failure; retry or escalate.",
}

DIFF_CONFIG = DiffConfig(
    excluded_columns={
        "travel_requests": frozenset({"id"}),
        "flight_bookings": frozenset({"id"}),
        "hotel_bookings": frozenset({"id"}),
        "approvals": frozenset({"id"}),
        "escalations": frozenset({"id"}),
    },
    fk_mode="drop",
)

LIMITS = RolloutLimits(max_turns=50, stop_token="###STOP###")

# task.md must stay free of these internal identifiers (plus all tool names)
REDACTION_LIST = (
    "travel_policies", "preferred_vendors", "flight_classes", "companies",
    "users", "travel_requests", "flight_bookings", "hotel_bookings",
    "approvals", "escalations",
    "company_id", "user_level", "max_flight_cost_no_approval",
    "allowed_hotel_vendor_type", "vendor_type", "user_id", "trip_purpose",
    "current_step", "flight_booking_count", "hotel_booking_count",
    "travel_request_id", "flight_code", "departure_step", "booking_step",
    "approval_status", "policy_violation_flag", "cancellation_step",
    "refund_amount", "hotel_vendor_id", "flight_booking_id", "approver_id",
)

# Origin state is seeded at decision boundaries: the staff request already
# holds 3 active flights (quota edge) and 1 of 2 hotels; the director
# request is empty and the episode works against it.
SEED_PROPOSALS = [
    {"table": "flight_classes", "strategy": "substitutes", "rows": [
        {"id": "ECONOMY", "description": "Standard economy cabin"},
        {"id": "BUSINESS", "description": "Business cabin with lie-flat seats"},
    ]},
    {"table": "preferred_vendors", "strategy": "trade-offs", "rows": [
        {"id": "v_grand", "name": "Grand Plaza Hotels", "vendor_type": "PREFERRED"},
        {"id": "v_harbor", "name": "Harborview Suites", "vendor_type": "PREFERRED"},
        {"id": "v_city", "name": "City Stay Budget", "vendor_type": "STANDARD"},
    ]},
    {"table": "companies", "strategy": "distractors", "rows": [
        {"id": "comp_alpha", "name": "Alpha Dynamics", "active": 1},
        {"id": "comp_beta", "name": "Beta Logistics", "active": 0},
    ]},
    {"table": "users", "strategy": "mismatch", "rows": [
        {"id": "u_staff_01", "company_id": "comp_alpha", "user_level": "STAFF", "active": 1},
        {"id": "u_mgr_01", "company_id": "comp_alpha", "user_level": "MANAGER", "active": 1},
        {"id": "u_dir_01", "company_id": "comp_alpha", "user_level": "DIRECTOR", "active": 1},
        {"id": "u_vp_01", "company_id": "comp_alpha", "user_level": "VP", "active": 1},
        {"id": "u_staff_02", "company_id": "comp_beta", "user_level": "STAFF", "active": 1},
    ]},
    {"table": "travel_policies", "strategy": "edge", "rows": [
        {"id": "pol_alpha_staff", "company_id": "comp_alpha", "user_level": "STAFF",
         "max_flight_cost_no_approval": 1000, "allowed_hotel_vendor_type": "PREFERRED"},
        {"id": "pol_alpha_mgr", "company_id": "comp_alpha", "user_level": "MANAGER",
         "max_flight_cost_no_approval": 1000, "allowed_hotel_vendor_type": "PREFERRED"},
        {"id": "pol_alpha_dir", "company_id": "comp_alpha", "user_level": "DIRECTOR",
         "max_flight_cost_no_approval": 2000, "allowed_hotel_vendor_type": "ANY"},
        {"id": "pol_alpha_vp", "company_id": "comp_alpha", "user_level": "VP",
         "max_flight_cost_no_approval": 2000, "allowed_hotel_vendor_type": "ANY"},
        {"id": "pol_beta_staff", "company_id": "comp_beta", "user_level": "STAFF",
         "max_flight_cost_no_approval": 800, "allowed_hotel_vendor_type": "PREFERRED"},
    ]},
    {"table": "travel_requests", "strategy": "entangled", "rows": [
        {"user_id": "u_staff_01", "trip_purpose": "Client onboarding visit", "current_step": 10},
        {"user_id": "u_dir_01", "trip_purpose": "Board meeting preparation", "current_step": 12},
    ]},
    {"table": "flight_bookings", "strategy": "edge", "rows": [
        {"travel_request_id": 1, "flight_code": "FL-101", "cost": 300, "class": "ECONOMY",
         "departure_step": 15, "booking_step": 10},
        {"travel_request_id": 1, "flight_code": "FL-118", "cost": 450, "class": "ECONOMY",
         "departure_step": 16, "booking_step": 10},
        {"travel_request_id": 1, "flight_code": "FL-127", "cost": 600, "class": "ECONOMY",
         "departure_step": 18, "booking_step": 11},
    ]},
    {"table": "hotel_bookings", "strategy": "edge", "rows": [
        {"travel_request_id": 1, "hotel_vendor_id": "v_grand", "cost": 220, "booking_step": 10},
    ]},
]

EPISODE_GOAL = (
    "Add a backup economy flight and one preferred-vendor hotel night to the "
    "existing board meeting trip for the director."
)

ORACLE_USER_SCRIPT = [
    "Hello! This is u_dir_01 from comp_alpha. I need a backup economy flight "
    "added to my board meeting trip. Flight FL-221 at 420 dollars works; it "
    "departs at step 18 and should be booked at step 14.",
    "Yes, please go ahead.",
    "Great. I also need one night at a hotel from the preferred list, "
    "something around 250 dollars, booked at step 14.",
    "Yes, book Harborview Suites.",
    "###STOP###",
]

_FLIGHT_INSERT_ARGS = {
    "travel_request_id": 2,
    "flight_code": "FL-221",
    "cost": 420,
    "class": "ECONOMY",
    "departure_step": 18,
    "booking_step": 14,
    "approval_status": "NOT_REQUIRED",
}

_HOTEL_INSERT_ARGS = {
    "travel_request_id": 2,
    "hotel_vendor_id": "v_harbor",
    "cost": 250,
    "booking_step": 14,
}

ORACLE_AGENT_SCRIPT = [
    {"tool_call": {"tool_name": "query_users",
                   "arguments": {"filters": {"id": "u_dir_01"}}}},
    {"tool_call": {"tool_name": "query_travel_requests",
                   "arguments": {"filters": {"user_id": "u_dir_01"}}}},
    {"text": "You are verified as an active director. I can add economy "
             "flight FL-221 at 420 dollars to your board meeting trip, "
             "departing step 18 and booked at step 14; no manager approval "
             "is needed at that price. Shall I proceed?"},
    {"tool_call": {"tool_name": "insert_flight_bookings",
                   "arguments": dict(_FLIGHT_INSERT_ARGS)}},
    {"text": "Flight FL-221 is booked and pending ticketing. Anything else?"},
    {"tool_call": {"tool_name": "query_preferred_vendors",
                   "arguments": {"filters": {"vendor_type": "PREFERRED"}}}},
    {"text": "Harborview Suites is on the preferred list at your 250 dollar "
             "target and stays fully reimbursable. Book one night at step 14?"},
    {"tool_call": {"tool_name": "insert_hotel_bookings",
                   "arguments": dict(_HOTEL_INSERT_ARGS)}},
    {"text": "Done: the Harborview stay is booked alongside flight FL-221. "
             "Your board meeting travel is fully arranged."},
]

# Explorer stub scripts: client mirrors the oracle user, consultant mirrors
# the oracle agent, so the synthesized package reproduces the same episode.
EXPLORER_CLIENT_SCRIPT = [
    {"message": ORACLE_USER_SCRIPT[0], "goal": EPISODE_GOAL, "stop": False},
    {"message": ORACLE_USER_SCRIPT[1], "stop": False},
    {"message": ORACLE_USER_SCRIPT[2], "stop": False},
    {"message": ORACLE_USER_SCRIPT[3], "stop": False},
    {"message": "That covers everything, thank you!", "stop": True},
]

EXPLORER_CONSULTANT_SCRIPT = [
    {"message": ORACLE_AGENT_SCRIPT[2]["text"],
     "tool_calls": [ORACLE_AGENT_SCRIPT[0]["tool_call"], ORACLE_AGENT_SCRIPT[1]["tool_call"]]},
    {"message": ORACLE_AGENT_SCRIPT[4]["text"],
     "tool_calls": [ORACLE_AGENT_SCRIPT[3]["tool_call"]]},
    {"message": ORACLE_AGENT_SCRIPT[6]["text"],
     "tool_calls": [ORACLE_AGENT_SCRIPT[5]["tool_call"]]},
    {"message": ORACLE_AGENT_SCRIPT[8]["text"],
     "tool_calls": [ORACLE_AGENT_SCRIPT[7]["tool_call"]]},
]

ARCHITECT_ANALYZE = (
    "Blueprint: corporate travel desk with role-based cabin permissions, a "
    "cost-threshold approval matrix with two waivers, booking quotas per "
    "request, refund arithmetic validated on cancellation, and irreversible "
    "TICKETED/CONFIRMED lifecycle states."
)

SEED_DOMAIN_TEXT = (
    "Corporate Business Travel Portal: a B2B platform where employees of "
    "large corporations book work trips under company expense policy and "
    "approval workflows, on a simulation-step clock."
)


def canned_generation_outputs() -> dict[str, list[str]]:
    """Stub generation-port outputs replaying this fixture end to end."""
    return {
        "analyze": [ARCHITECT_ANALYZE],
        "policy": [POLICY_MD],
        "tables": [SCHEMA_SQL],
        "triggers": [TRIGGERS_SQL],
        "seed_state": [json.dumps(SEED_PROPOSALS)],
        "client": [json.dumps(doc) for doc in EXPLORER_CLIENT_SCRIPT],
        "consultant": [json.dumps(doc) for doc in EXPLORER_CONSULTANT_SCRIPT],
    }


def build_bundle() -> EnvironmentBundle:
    return EnvironmentBundle.from_schema(SCHEMA_SQL, TRIGGERS_SQL, PERMISSIONS, ERROR_HINTS)


def build_origin_snapshot(bundle: EnvironmentBundle | None = None) -> Snapshot:
    """Seed the boundary-adjacent origin state through the live engine."""
    bundle = bundle or build_bundle()
    with open_environment_at(bundle, bundle.empty_snapshot) as env:
        return _seed_origin(env)


def _seed_origin(env: EnvHandle) -> Snapshot:
    """Seed the origin on ``env``, an open handle at the bundle's empty image."""
    committed, rejected = apply_seed_proposals(env, SEED_PROPOSALS)
    if rejected:
        raise RuntimeError(f"fixture seed rejected: {rejected[0]}")
    return env.snapshot()


def oracle_tool_calls() -> list[ToolCall]:
    return [
        ToolCall.from_json(step["tool_call"])
        for step in ORACLE_AGENT_SCRIPT
        if "tool_call" in step
    ]


def build_task_package() -> TaskPackage:
    """Assemble the full in-memory package through the synthesis stages; the
    target is the explorer scripts' episode, run for real from the origin on
    the engine that seeded it (as in ``synthesis.synthesize_package``)."""
    bundle = build_bundle()
    port = StubGenerationPort(canned_generation_outputs())
    with open_environment_at(bundle, bundle.empty_snapshot) as env:
        origin = _seed_origin(env)
        episode = _explore_on(env, port, port, LIMITS)
    for call, result in episode.actions:
        if result.status != "success":
            raise RuntimeError(f"oracle action {call.tool_name} failed: {result.error}")
    task_md = project_user_view(
        episode, build_redaction_list(bundle, episode, REDACTION_LIST)
    )
    return assemble_package(bundle, POLICY_MD, origin, episode, task_md, name=FIXTURE_NAME,
                            domain=FIXTURE_DOMAIN, diff_config=DIFF_CONFIG, limits=LIMITS,
                            redaction_list=REDACTION_LIST)


def build(path) -> TaskPackage:
    """Materialize the fixture package directory, including oracle port scripts."""
    pkg = build_task_package()
    root = Path(path)
    save_package(pkg, root)
    scripts = root / "scripts"
    scripts.mkdir(exist_ok=True)
    (scripts / "agent_script.json").write_text(
        json.dumps(ORACLE_AGENT_SCRIPT, indent=2) + "\n", "utf-8"
    )
    (scripts / "user_script.json").write_text(
        json.dumps(ORACLE_USER_SCRIPT, indent=2) + "\n", "utf-8"
    )
    return pkg
