-- perfbase embedded database dump
-- wal-checkpoint-seq: 3
CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b TEXT);
INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'it''s'), (3, NULL, E'line\nbreak');
